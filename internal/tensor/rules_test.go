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
// and the Euclidean distance tile, round the
// product before the sum, as the Go bodies do (DESIGN.md §15). The glob takes
// every assembly file, so a new routine is covered where it lands.
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
