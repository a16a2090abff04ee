package nn

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestElementwiseLayersBranchFree: in the amd64 listing of the six
// instantiations of ReLU Forward/Backward and MaxPool2 Forward, the first
// flag reader after each UCOMISS/UCOMISD is a SETcc or CMOV, never a jump:
// an activation's sign is a coin flip a jump would mispredict.
func TestElementwiseLayersBranchFree(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=amd64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-S: %v\n%s", err, out)
	}
	guarded := regexp.MustCompile(`\.\(\*(ReLU\[go\.shape\.float(32|64)\]\)\.(Forward|Backward)|MaxPool2\[go\.shape\.float(32|64)\]\)\.Forward)$`)
	compares := map[string]int{}
	sym, afterCompare := "", false
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" {
			continue
		}
		if c := line[0]; c != ' ' && c != '\t' {
			if i := strings.Index(line, " STEXT "); i > 0 {
				sym, afterCompare = "", false
				if guarded.MatchString(line[:i]) {
					sym = line[:i]
					compares[sym] = 0
				}
			}
			continue
		}
		if sym == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		op := f[3]
		if afterCompare && strings.HasPrefix(op, "J") {
			t.Errorf("conditional jump on a float compare in %s: %s %s", sym, f[2], op)
		}
		if afterCompare && (strings.HasPrefix(op, "J") || strings.HasPrefix(op, "SET") || strings.HasPrefix(op, "CMOV")) {
			afterCompare = false
		}
		if op == "UCOMISS" || op == "UCOMISD" {
			afterCompare = true
			compares[sym]++
		}
	}
	for s, n := range compares {
		if n == 0 {
			t.Errorf("%s: no float compare found", s)
		}
	}
	if len(compares) != 6 {
		t.Errorf("found %d of the 6 elementwise symbols", len(compares))
	}
}
