package tensor

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestAssemblyHasNoFusedMultiplyAdd: each element type's tile and axpy
// round the product before the sum, as the Go bodies do (DESIGN.md §15).
func TestAssemblyHasNoFusedMultiplyAdd(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found (%v)", err)
	}
	fused := regexp.MustCompile(`VF(N)?M(ADD|SUB)`)
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if fused.MatchString(line) {
				t.Errorf("%s:%d: fused multiply-add in the assembly: %s", name, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// TestHotLoopsBoundsCheckFree: in kernels.go and im2col.go the compiler
// may check only a slice expression, cut once per row or run, and the
// &x[i] handed to a tile or the run copy (DESIGN.md §15).
func TestHotLoopsBoundsCheckFree(t *testing.T) {
	allowed := map[string]*regexp.Regexp{
		"kernels.go": regexp.MustCompile(`\[[^\]]*:[^\]]*\]|&\w+\[`),
		"im2col.go":  regexp.MustCompile(`\[[^\]]*:[^\]]*\]|AVX2\(`),
	}
	sources := map[string][]string{}
	for name := range allowed {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sources[name] = strings.Split(string(src), "\n")
	}
	found := regexp.MustCompile(`(?m)^\S*?(\w+\.go):(\d+):\d+: Found Is\w*InBounds$`)
	checks, reported := 0, map[string]bool{}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=-d=ssa/check_bce", ".")
	cmd.Env = append(os.Environ(), "GOARCH=amd64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-d=ssa/check_bce: %v\n%s", err, out)
	}
	for _, m := range found.FindAllStringSubmatch(string(out), -1) {
		ok, guarded := allowed[m[1]]
		if !guarded {
			continue
		}
		checks++
		ln, _ := strconv.Atoi(m[2])
		if src := sources[m[1]][ln-1]; !ok.MatchString(src) && !reported[m[1]+":"+m[2]] {
			reported[m[1]+":"+m[2]] = true
			t.Errorf("bounds check inside an inner loop at %s:%d: %s", m[1], ln, strings.TrimSpace(src))
		}
	}
	if checks == 0 {
		t.Error("the compiler reported no bounds check in kernels.go or im2col.go; the listing format has changed")
	}
}
