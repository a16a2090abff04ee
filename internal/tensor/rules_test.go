package tensor

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAssemblyHasNoFusedMultiplyAdd: each element type's tile (in every
// form: pack b, pack a, and the offset form a convolution's forward runs),
// axpy, the convolution's weight-gradient axpy and momentum SGD stream,
// and the Euclidean distance tile, round the product before the sum, as
// the Go bodies do (DESIGN.md §15). Every line of every assembly file is
// scanned, the #define bodies that hold the forms both types share
// included, so a new routine is covered where it lands.
func TestAssemblyHasNoFusedMultiplyAdd(t *testing.T) {
	fused := regexp.MustCompile(`VF(N)?M(ADD|SUB)`)
	for name, lines := range assemblySources(t) {
		for i, line := range lines {
			if fused.MatchString(line) {
				t.Errorf("%s:%d: fused multiply-add in the assembly: %s", name, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// TestMacrosReadNoArguments: no #define body in the assembly names an
// (FP) operand; each TEXT block's own prologue loads every argument
// before it instantiates a macro. go vet's asmdecl charges an (FP)
// operand to the TEXT block above the line it is written on, and a
// macro's lines sit above whichever block comes next, so an argument
// read inside a body would be checked against the wrong function's frame
// (DESIGN.md §15).
func TestMacrosReadNoArguments(t *testing.T) {
	// Line 3 reads an argument inside a body; line 6 is a prologue's.
	const bad = `#define LOAD(MOVUP) \
	MOVUP (DI), Y0 \
	MOVQ n+8(FP), CX

TEXT ·load(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	LOAD(VMOVUPD)
	RET
`
	if got := macroArgumentReads(strings.Split(bad, "\n")); len(got) != 1 || got[0] != 3 {
		t.Fatalf("macroArgumentReads found argument reads in a body on lines %v, want [3]", got)
	}
	for name, lines := range assemblySources(t) {
		for _, n := range macroArgumentReads(lines) {
			t.Errorf("%s:%d: a macro body reads an argument: %s", name, n, strings.TrimSpace(lines[n-1]))
		}
	}
}

// macroArgumentReads returns the 1-based numbers of the lines inside a
// #define body, the #define line included, that name an (FP) operand. A
// body runs from its #define line through each line that ends in a
// backslash, and the line after the last of those.
func macroArgumentReads(lines []string) []int {
	var found []int
	inBody := false
	for i, line := range lines {
		if strings.HasPrefix(line, "#define") {
			inBody = true
		}
		if inBody && strings.Contains(line, "(FP)") {
			found = append(found, i+1)
		}
		inBody = inBody && strings.HasSuffix(strings.TrimRight(line, " \t"), "\\")
	}
	return found
}

// assemblySources reads every assembly file of the package, split into
// lines, by name.
func assemblySources(t *testing.T) map[string][]string {
	t.Helper()
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found (%v)", err)
	}
	srcs := make(map[string][]string, len(files))
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = strings.Split(string(src), "\n")
	}
	return srcs
}
