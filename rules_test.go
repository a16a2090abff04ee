// Repository rules that span packages (DESIGN.md §15). The tests read the
// module's own source through go/build, go/parser and go/types, or the
// toolchain's listing of it.
package fedclust_test

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const modulePath = "fedclust"

// module is every non-test package of the module, type-checked for
// linux/amd64 and linux/arm64: the simd_other.go bodies compile only on
// the second. A file both targets compile is parsed once, so each
// declaration has one position.
type module struct {
	fset    *token.FileSet
	files   map[string]*ast.File // by path
	targets []map[string]*pkg    // amd64, arm64; by import path
}

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{fset: token.NewFileSet(), files: map[string]*ast.File{}}
	std := importer.Default() // the toolchain's export data
	for _, arch := range []string{"amd64", "arm64"} {
		pkgs, err := m.typeCheck(arch, std)
		if err != nil {
			return nil, fmt.Errorf("GOARCH=%s: %w", arch, err)
		}
		m.targets = append(m.targets, pkgs)
	}
	return m, nil
})

func load(t *testing.T) *module {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// typeCheck loads every package of the module as GOARCH=arch compiles it.
func (m *module) typeCheck(arch string, std types.Importer) (map[string]*pkg, error) {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", arch, false
	dirs := map[string]string{} // import path → directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		dirs[filepath.ToSlash(filepath.Join(modulePath, path))] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := map[string]*pkg{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		dir, ok := dirs[path]
		if !ok {
			return std.Import(path)
		}
		if p, ok := pkgs[path]; ok {
			return p.types, nil
		}
		bp, err := ctx.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p := &pkg{path: path, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
		for _, name := range bp.GoFiles {
			name = filepath.Join(dir, name)
			if m.files[name] == nil {
				if m.files[name], err = parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution); err != nil {
					return nil, err
				}
			}
			p.files = append(p.files, m.files[name])
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", arch)}
		p.types, err = conf.Check(path, m.fset, p.files, p.info)
		pkgs[path] = p
		return p.types, err
	}
	for ip := range dirs {
		if _, err := imp(ip); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return nil, err
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// eachFuncUse calls fn once per use of a func or method in non-test code,
// with the package and top-level declaration it sits in and the func's
// full name: "os.Create", "(*fedclust/internal/fl.Lane).Visit".
func (m *module) eachFuncUse(fn func(p *pkg, d ast.Decl, pos token.Pos, name string)) {
	done := map[token.Pos]bool{}
	for _, pkgs := range m.targets {
		for _, p := range pkgs {
			for _, f := range p.files {
				for _, d := range f.Decls {
					ast.Inspect(d, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if used, isFunc := p.info.Uses[id].(*types.Func); ok && isFunc && !done[id.Pos()] {
							done[id.Pos()] = true
							fn(p, d, id.Pos(), used.FullName())
						}
						return true
					})
				}
			}
		}
	}
}

// TestEverythingIsReachable: every func, method, type, const and
// package-level var is reached from a root — the main of a command, an
// init, or a package-level var initialiser — through identifier uses in
// reached bodies. A method is also reached when its receiver type is and
// an interface type named in reached code carries its name. A
// declaration without a body (assembly) is reached only when Go code
// names it. Tests are not roots.
func TestEverythingIsReachable(t *testing.T) {
	m := load(t)
	declared := map[token.Pos]types.Object{}
	reached := map[token.Pos]bool{}
	for _, pkgs := range m.targets {
		decls, seen := reachability(pkgs)
		for obj := range decls {
			declared[obj.Pos()] = obj
			reached[obj.Pos()] = reached[obj.Pos()] || seen[obj]
		}
	}
	var dead []string
	for pos, obj := range declared {
		if !reached[pos] {
			dead = append(dead, fmt.Sprintf("%s: %s is reached from no main, init or package var", m.fset.Position(pos), describe(obj)))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// syntax is source to walk and the type info that resolves it.
type syntax struct {
	node ast.Node
	info *types.Info
}

// reachability returns every package-level declaration of one target and
// the ones a root reaches.
func reachability(pkgs map[string]*pkg) (decls map[types.Object]syntax, reached map[types.Object]bool) {
	decls = map[types.Object]syntax{}
	methods := map[string][]types.Object{} // by name
	var queue []syntax                     // the roots, to start with
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					if d.Recv != nil {
						methods[obj.Name()] = append(methods[obj.Name()], obj)
					} else if d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main" {
						queue = append(queue, syntax{d, p.info})
						continue
					}
					decls[obj] = syntax{d, p.info}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = syntax{s, p.info}
						case *ast.ValueSpec:
							// An initialiser runs at start-up: what it names
							// is reached whether or not the var is.
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									queue = append(queue, syntax{v, p.info})
								}
							}
							for _, name := range s.Names {
								if name.Name != "_" {
									decls[p.info.Defs[name]] = syntax{s, p.info}
								}
							}
						}
					}
				}
			}
		}
	}

	// fmt's print verbs call String through fmt.Stringer, which module
	// code hands values to as `any` without naming it.
	ifaceNames := map[string]bool{"String": true}
	reached = map[types.Object]bool{}
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if s, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			s := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(s.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					obj := s.info.Uses[n]
					mark(obj)
					if tn, ok := obj.(*types.TypeName); ok {
						if it, ok := tn.Type().Underlying().(*types.Interface); ok {
							for i := 0; i < it.NumMethods(); i++ {
								ifaceNames[it.Method(i).Name()] = true
							}
						}
					}
				case *ast.InterfaceType:
					for _, f := range n.Methods.List {
						for _, name := range f.Names {
							ifaceNames[name.Name] = true
						}
					}
				}
				return true
			})
		}
		for name := range ifaceNames {
			for _, obj := range methods[name] {
				if reached[receiverType(obj)] {
					mark(obj)
				}
			}
		}
	}
	return decls, reached
}

// receiverType is the type name a method is declared on.
func receiverType(method types.Object) types.Object {
	recv := method.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named).Origin().Obj()
}

// describe names a declaration the way a finding reads:
// "func (*core.ClusterState).AssignNewcomer(feature []float64) int".
func describe(obj types.Object) string {
	if _, ok := obj.(*types.TypeName); ok {
		return "type " + obj.Pkg().Name() + "." + obj.Name()
	}
	return types.ObjectString(obj, (*types.Package).Name)
}

// TestOneVisitPath: under internal/, nothing calls
// TrainScratch.LocalUpdate. Every client visit is an fl.Lane's, and the
// lane runs LocalUpdate's body itself. internal/experiments' layer
// probes train a bare model and are exempt; bench/ times the pass as a
// rung of its own.
func TestOneVisitPath(t *testing.T) {
	m := load(t)
	m.eachFuncUse(func(p *pkg, _ ast.Decl, pos token.Pos, name string) {
		if name == "(*"+modulePath+"/internal/fl.TrainScratch).LocalUpdate" &&
			strings.HasPrefix(p.path, modulePath+"/internal/") && p.path != modulePath+"/internal/experiments" {
			t.Errorf("%s: a local pass outside fl.Lane", m.fset.Position(pos))
		}
	})
}

// TestOneExecutor: under internal/, only three packages start a
// goroutine — sched (its workers), transport (a connection's read loop
// and a node's per-request handlers) and control (the HTTP server).
// Every parallel phase runs on sched.Default.
func TestOneExecutor(t *testing.T) {
	m := load(t)
	for path, f := range m.files {
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/sched" || dir == "internal/transport" || dir == "internal/control" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: a go statement outside sched, transport and control", m.fset.Position(g.Pos()))
			}
			return true
		})
	}
}

// TestOneRoundAccumulator: under internal/, no non-test method named
// ObserveOutcome exists outside obs. obs.Tracker is the one place a
// round's observations accumulate; the journal embeds it and /status
// serves it, so a second accumulator (or a fan-out feeding two) shows up
// as a second ObserveOutcome.
func TestOneRoundAccumulator(t *testing.T) {
	m := load(t)
	for path, f := range m.files {
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/obs" {
			continue
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "ObserveOutcome" {
				t.Errorf("%s: a round accumulator outside obs.Tracker", m.fset.Position(fn.Pos()))
			}
		}
	}
}

// TestComputeLeavesDoNotSchedule: the compute packages — tensor, nn,
// opt, wire, data — do not import sched, so a kernel runs on the
// goroutine that calls it and parallelism lives one level up, across
// clients.
func TestComputeLeavesDoNotSchedule(t *testing.T) {
	m := load(t)
	sched := strconv.Quote(modulePath + "/internal/sched")
	for path, f := range m.files {
		switch filepath.ToSlash(filepath.Dir(path)) {
		case "internal/tensor", "internal/nn", "internal/opt", "internal/wire", "internal/data":
			for _, imp := range f.Imports {
				if imp.Path.Value == sched {
					t.Errorf("%s: a compute package imports internal/sched", m.fset.Position(imp.Pos()))
				}
			}
		}
	}
}

// TestOneCSVWriter: cmd/fedsim's one os.Create is the experiment
// driver's -csv.
func TestOneCSVWriter(t *testing.T) {
	m := load(t)
	var creates []string
	m.eachFuncUse(func(p *pkg, _ ast.Decl, pos token.Pos, name string) {
		if p.path == modulePath+"/cmd/fedsim" && name == "os.Create" {
			creates = append(creates, m.fset.Position(pos).String())
		}
	})
	if len(creates) > 1 {
		t.Errorf("fedsim creates files at %d sites, want one (the experiment driver's -csv): %s", len(creates), strings.Join(creates, ", "))
	}
}

// TestSectionNamesSpelledOnce: each checkpoint section name is spelled
// once, in its method's Hooks.State list.
func TestSectionNamesSpelledOnce(t *testing.T) {
	m := load(t)
	section := regexp.MustCompile(`^"(stale|fedbuff|cfl|ifca|clustered)/[a-z_]+"$`)
	at := map[string][]string{}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && section.MatchString(lit.Value) {
				at[lit.Value] = append(at[lit.Value], m.fset.Position(lit.Pos()).String())
			}
			return true
		})
	}
	if len(at) == 0 {
		t.Fatal("no checkpoint section literal found; the naming scheme has changed")
	}
	for name, pos := range at {
		if len(pos) > 1 {
			sort.Strings(pos)
			t.Errorf("section name %s spelled %d times: %s", name, len(pos), strings.Join(pos, ", "))
		}
	}
}

// TestNoRecover: no non-test code calls the recover builtin. A value that
// crosses a process or file boundary is checked by a rule that returns an
// error; a panic is left for programmer errors, and nothing turns one back
// into an error.
func TestNoRecover(t *testing.T) {
	m := load(t)
	seen := map[token.Pos]bool{}
	for _, pkgs := range m.targets {
		for _, p := range pkgs {
			for id, obj := range p.info.Uses {
				if b, ok := obj.(*types.Builtin); ok && b.Name() == "recover" && !seen[id.Pos()] {
					seen[id.Pos()] = true
					t.Errorf("%s: recover turns a panic back into a value", m.fset.Position(id.Pos()))
				}
			}
		}
	}
}

// TestExitOnlyInMain: under cmd/ and internal/, os.Exit appears only
// inside func main. Everything else returns its error to the one place
// that turns it into an exit status.
func TestExitOnlyInMain(t *testing.T) {
	m := load(t)
	m.eachFuncUse(func(p *pkg, d ast.Decl, pos token.Pos, name string) {
		if name != "os.Exit" || !(strings.HasPrefix(p.path, modulePath+"/cmd/") || strings.HasPrefix(p.path, modulePath+"/internal/")) {
			return
		}
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "main" && p.types.Name() == "main" {
			return
		}
		t.Errorf("%s: os.Exit outside func main", m.fset.Position(pos))
	})
}

// TestGofmt: every .go file of the module is as go/format prints it.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRootHoldsNoNonTestGo(t *testing.T) {
	files, _ := filepath.Glob("*.go") // the pattern is well-formed
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			t.Errorf("%s: a root package is back", f)
		}
	}
}

// TestNoFusedMultiplyAddOnArm64: the arm64 listing of every internal
// package holds no fused multiply-add, so an arm64 host rounds every
// product before its sum, as the amd64 goldens do. A package missing from
// the listing fails too.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	m := load(t)
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=-S", "./internal/...")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S ./internal/...: %v\n%s", err, out)
	}
	var symbols []string
	fused := regexp.MustCompile(`F(N)?M(ADD|SUB)`)
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" {
			continue
		}
		if c := line[0]; c != ' ' && c != '\t' {
			if i := strings.Index(line, " STEXT "); i > 0 {
				symbols = append(symbols, line[:i])
			}
		} else if (strings.Contains(line, "MADD") || strings.Contains(line, "MSUB")) && fused.MatchString(line) {
			t.Errorf("fused multiply-add on arm64 in %s: %s", symbols[len(symbols)-1], strings.TrimSpace(line))
		}
	}
	for path := range m.targets[1] {
		listed := !strings.HasPrefix(path, modulePath+"/internal/")
		for _, s := range symbols {
			listed = listed || strings.HasPrefix(s, path+".")
		}
		if !listed {
			t.Errorf("no arm64 assembly listing for %s", path)
		}
	}
}

// hotLoops are the files whose loops the compiler must keep free of
// bounds checks, the functions of each that the rule covers (every one
// when none is named), and the checks each may keep.
var hotLoops = []struct {
	file    string
	funcs   []string
	allowed *regexp.Regexp
}{
	// A slice expression cutting b-rows, the panel or an output row; an
	// &x[i] tile start.
	{"internal/tensor/kernels.go", nil, regexp.MustCompile(`\[[^\]]*:[^\]]*\]|&\w+\[`)},
	// The Euclidean distance tile's Go body and its pack loop: a slice
	// expression cutting a row to the first row's length or the tile's
	// output row.
	{"internal/tensor/distance.go", []string{"packEuclidean", "euclideanTileGo"}, regexp.MustCompile(`\[[^\]]*:[^\]]*\]`)},
	// The forward convolution's tap-offset table and its channel-major
	// store, the LeNet block's window walk and pooled store, and the
	// weight gradient's listing: a slice expression cutting an offset run,
	// a bias block, a tile row, an output plane, a padded image or a
	// gradient row; the &x[i] row bases, offset table and panel block
	// handed to the tile; a listed pixel's offset and coefficient, [p],
	// and a channel's pooled element and argmax, [oi], which no loop bound
	// can prove.
	{"internal/tensor/conv.go", []string{"tapOffsets", "convTiles", "storeQuad", "storeChannels", "convPoolWindows", "store", "AddInto"},
		regexp.MustCompile(`\[[^\]]*:[^\]]*\]|&\w+\[|\[(p|oi)\]`)},
	// The momentum SGD and conversion streams' Go bodies and their
	// dispatch: a slice expression cutting an operand to the first one's
	// length or the Go tail off the assembly's part; an &x[0] stream start.
	{"internal/tensor/stream.go", nil, regexp.MustCompile(`\[[^\]]*:[^\]]*\]|&\w+\[`)},
	// A slice expression cutting a plane, row or run; the &col[0]/&src[0]
	// handed to copyRunsAVX2.
	{"internal/tensor/im2col.go", nil, regexp.MustCompile(`\[[^\]]*:[^\]]*\]|AVX2\(`)},
	// A gradient or a window of the flat velocity cut to the parameter's
	// length. AddProximal's loop needs no cut: its length check proves
	// every index.
	{"internal/opt/opt.go", nil, regexp.MustCompile(`\[[^\]]*:[^\]]*\]`)},
	// A vector cut to n; the client's residual row; a gather or scatter
	// at a kept index.
	{"internal/fl/ef.go", nil, regexp.MustCompile(`\[[^\]]*:[^\]]*\]|\[(client|ix)\]`)},
	// A slice expression; a compaction's store at its write cursor c,
	// which no loop bound can prove.
	{"internal/wire/sparse.go", []string{"TopKSelect", "sampleBound", "survivors", "keep"},
		regexp.MustCompile(`\[[^\]]*:[^\]]*\]|\w+\[c\] = `)},
	// Mirror32's store of each layer's float32 form, layers[i].
	{"internal/nn/mirror32.go", nil, regexp.MustCompile(`layers\[i\]`)},
	// A bias, bias gradient or row cut to Out; the batch size read off a
	// shape; a workspace's header, set up once per call by the inlined get.
	{"internal/nn/dense.go", []string{"Forward", "Backward"}, regexp.MustCompile(`\[[^\]]*:[^\]]*\]|Shape\[0\]|\.get\(`)},
}

// TestHotLoopsBoundsCheckFree: under -d=ssa/check_bce, each hotLoops file
// reports checks only on lines its pattern allows (DESIGN.md §15). A file
// that reports no check at all means the listing format has changed.
func TestHotLoopsBoundsCheckFree(t *testing.T) {
	m := load(t)
	type rule struct {
		allowed *regexp.Regexp
		lines   []string
		spans   [][2]int // the covered funcs' first and last lines; nil covers the file
		checks  int
	}
	rules := map[string]*rule{}
	for _, h := range hotLoops {
		src, err := os.ReadFile(h.file)
		if err != nil {
			t.Fatal(err)
		}
		r := &rule{allowed: h.allowed, lines: strings.Split(string(src), "\n")}
		rules[h.file] = r
		f := m.files[filepath.FromSlash(h.file)]
		if f == nil {
			t.Fatalf("%s is not part of the module's non-test code", h.file)
		}
		for _, name := range h.funcs {
			n := len(r.spans)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
					r.spans = append(r.spans, [2]int{m.fset.Position(fd.Pos()).Line, m.fset.Position(fd.End()).Line})
				}
			}
			if len(r.spans) == n {
				t.Errorf("%s declares no func %s", h.file, name)
			}
		}
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=-d=ssa/check_bce",
		"./internal/tensor", "./internal/opt", "./internal/fl", "./internal/wire", "./internal/nn")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-d=ssa/check_bce: %v\n%s", err, out)
	}
	// A file is named from the module root, or relative to the package
	// under the "# import path" line above it ("./" or "../" for a body
	// inlined from another package).
	found := regexp.MustCompile(`^(\S+\.go):(\d+):\d+: Found Is\w*InBounds$`)
	reported := map[string]bool{}
	dir := ""
	for _, line := range strings.Split(string(out), "\n") {
		if p, ok := strings.CutPrefix(line, "# "); ok {
			dir = strings.TrimPrefix(p, modulePath+"/")
			continue
		}
		f := found.FindStringSubmatch(line)
		if f == nil {
			continue
		}
		file := f[1]
		if strings.HasPrefix(file, ".") {
			file = filepath.ToSlash(filepath.Join(dir, file))
		}
		ln, _ := strconv.Atoi(f[2])
		r := rules[file]
		if r == nil || !inSpans(r.spans, ln) {
			continue
		}
		r.checks++
		if src := r.lines[ln-1]; !r.allowed.MatchString(src) && !reported[file+":"+f[2]] {
			reported[file+":"+f[2]] = true
			t.Errorf("bounds check inside a hot loop at %s:%d: %s", file, ln, strings.TrimSpace(src))
		}
	}
	for _, h := range hotLoops {
		if rules[h.file].checks == 0 {
			t.Errorf("the compiler reported no bounds check in %s; the listing format has changed", h.file)
		}
	}
}

// inSpans reports whether line falls in one of spans; nil spans hold every
// line.
func inSpans(spans [][2]int, line int) bool {
	for _, s := range spans {
		if s[0] <= line && line <= s[1] {
			return true
		}
	}
	return spans == nil
}
