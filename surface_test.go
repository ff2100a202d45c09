package wanshuffle_test

// An exported name under internal/ is one another package uses. The gate
// below type-checks the source with go/types (the standard library from
// source, so it needs no build or network): every exported top-level func,
// type, var and const, and every exported method and field of an exported
// type, needs an identifier in a non-test file of another package of this
// module (perf/ is a module of its own) that resolves to it, or an entry in
// the committed allowlist that gives one of four reasons it stays exported
// anyway.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

const surfaceAllowlist = "testdata/exported-allowlist.txt"

// surfaceReasons are the only reasons a name without an outside user stays
// exported; the allowlist's header says what each one means.
var surfaceReasons = map[string]bool{"json": true, "interface": true, "test-helper": true, "perf": true}

// surfaceDecl is one exported declaration under internal/: Name is a
// top-level name or Type.Member, pos where it is declared.
type surfaceDecl struct {
	pkg, name string
	pos       token.Pos
	field     bool // a struct field
	method    bool // a method, or an interface's method
	iface     bool // an interface type
}

func (d surfaceDecl) key() string { return d.pkg + " " + d.name }

// surfaceUses are the declarations one package's files resolve
// identifiers to, by declaring position (one file set holds every file).
type surfaceUses map[token.Pos]bool

// surfaceScan is what the gate knows about a tree: the declarations, and
// the uses of each kind of file keyed by the package (directory) they
// belong to. A test file in package x_test is its own package.
type surfaceScan struct {
	module  string
	decls   []surfaceDecl
	outside map[string]surfaceUses // non-test files of the root module
	tests   map[string]surfaceUses // test files of the root module
	perf    map[string]surfaceUses // perf/'s files
	public  surfaceUses            // members of types the root package aliases, or promoted into one
}

// surfaceDir is one directory's parsed files: the package, its in-package
// test files and its external (x_test) test files.
type surfaceDir struct {
	files, tests, xtests []*ast.File
}

// surfaceChecker type-checks the scanned tree; it is the importer of the
// module's own packages and hands every other path to the standard
// library's source importer.
type surfaceChecker struct {
	s    *surfaceScan
	fset *token.FileSet
	std  types.Importer
	dirs map[string]*surfaceDir
	pkgs map[string]*types.Package // import path -> checked package
}

// scanSurface type-checks every package under fsys, whose root is the
// module named module (perf/'s module path is module/perf).
func scanSurface(fsys fs.FS, module string) (*surfaceScan, error) {
	// The standard library is checked without cgo, so no C toolchain runs.
	build.Default.CgoEnabled = false
	s := &surfaceScan{
		module:  module,
		outside: map[string]surfaceUses{},
		tests:   map[string]surfaceUses{},
		perf:    map[string]surfaceUses{},
		public:  surfaceUses{},
	}
	fset := token.NewFileSet()
	c := &surfaceChecker{s: s, fset: fset, std: importer.ForCompiler(fset, "source", nil), dirs: map[string]*surfaceDir{}, pkgs: map[string]*types.Package{}}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := path.Base(p)
			if p != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := c.dirs[path.Dir(p)]
		if dir == nil {
			dir = &surfaceDir{}
			c.dirs[path.Dir(p)] = dir
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			dir.files = append(dir.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			dir.xtests = append(dir.xtests, f)
		default:
			dir.tests = append(dir.tests, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(c.dirs))
	for dir := range c.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		d := c.dirs[dir]
		if len(d.files) > 0 {
			if _, err := c.Import(c.importPath(dir)); err != nil {
				return nil, err
			}
		}
		if len(d.tests) > 0 {
			if _, err := c.check(dir, dir, append(append([]*ast.File(nil), d.files...), d.tests...)); err != nil {
				return nil, err
			}
		}
		if len(d.xtests) > 0 {
			if _, err := c.check(dir+" [external test]", dir, d.xtests); err != nil {
				return nil, err
			}
		}
	}
	for _, dir := range dirs {
		if pkg := c.pkgs[c.importPath(dir)]; pkg != nil && (dir == "internal" || strings.HasPrefix(dir, "internal/")) {
			s.addDecls(strings.TrimPrefix(strings.TrimPrefix(dir, "internal"), "/"), pkg)
		}
	}
	if root := c.pkgs[module]; root != nil {
		for _, name := range root.Scope().Names() {
			if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				s.publish(tn.Type(), map[*types.Named]bool{})
			}
		}
	}
	sort.Slice(s.decls, func(i, j int) bool { return s.decls[i].pos < s.decls[j].pos })
	return s, nil
}

func (c *surfaceChecker) importPath(dir string) string {
	if dir == "." {
		return c.s.module
	}
	return c.s.module + "/" + dir
}

// Import returns the checked package of a directory of the tree, checking
// it first, or the standard library's package.
func (c *surfaceChecker) Import(p string) (*types.Package, error) {
	if pkg := c.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	dir := "."
	if p != c.s.module {
		dir, _ = strings.CutPrefix(p, c.s.module+"/")
	}
	if d := c.dirs[dir]; d == nil || len(d.files) == 0 {
		return c.std.Import(p)
	}
	pkg, err := c.check(dir, dir, c.dirs[dir].files)
	c.pkgs[p] = pkg
	return pkg, err
}

// check type-checks files as the package in dir and records, under group,
// the module's internal declarations their identifiers resolve to.
func (c *surfaceChecker) check(group, dir string, files []*ast.File) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(c.importPath(dir), c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	internal := c.s.module + "/internal/"
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), internal) {
			continue
		}
		var uses map[string]surfaceUses
		switch {
		case dir == "perf" || strings.HasPrefix(dir, "perf/"):
			uses = c.s.perf
		case strings.HasSuffix(c.fset.Position(id.Pos()).Filename, "_test.go"):
			uses = c.s.tests
		default:
			uses = c.s.outside
		}
		if uses[group] == nil {
			uses[group] = surfaceUses{}
		}
		uses[group][obj.Pos()] = true
	}
	return pkg, nil
}

// addDecls declares a package's exported top-level names, and each
// exported type's exported methods and named fields, or its interface's
// exported methods. An embedded field is its type, declared on its own.
func (s *surfaceScan) addDecls(pkg string, p *types.Package) {
	add := func(obj types.Object, name string, d surfaceDecl) {
		if obj.Exported() {
			d.pkg, d.name, d.pos = pkg, name, obj.Pos()
			s.decls = append(s.decls, d)
		}
	}
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			add(obj, name, surfaceDecl{})
			continue
		}
		named := tn.Type().(*types.Named)
		iface, _ := named.Underlying().(*types.Interface)
		add(obj, name, surfaceDecl{iface: iface != nil})
		if !obj.Exported() {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			add(named.Method(i), name+"."+named.Method(i).Name(), surfaceDecl{method: true})
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); !f.Embedded() {
					add(f, name+"."+f.Name(), surfaceDecl{field: true})
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				add(u.ExplicitMethod(i), name+"."+u.ExplicitMethod(i).Name(), surfaceDecl{method: true})
			}
		}
	}
}

// publish marks the methods and fields of a type the root package aliases
// as public API, and those of every type embedded in it, since they are
// promoted into it.
func (s *surfaceScan) publish(t types.Type, seen map[*types.Named]bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || seen[named] {
		return
	}
	seen[named] = true
	for i := 0; i < named.NumMethods(); i++ {
		s.public[named.Method(i).Pos()] = true
	}
	switch u := named.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			s.public[u.Field(i).Pos()] = true
			if u.Field(i).Embedded() {
				s.publish(u.Field(i).Type(), seen)
			}
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			s.public[u.Method(i).Pos()] = true
		}
	}
}

// usedIn reports whether a group of uses outside d's own package resolves
// an identifier to d.
func (s *surfaceScan) usedIn(uses map[string]surfaceUses, d surfaceDecl) bool {
	own := "internal/" + d.pkg
	for group, u := range uses {
		if group != own && u[d.pos] {
			return true
		}
	}
	return false
}

// usedOutside reports whether a non-test file of another package of the
// module uses d, or d is a member of a type the root package aliases.
func (s *surfaceScan) usedOutside(d surfaceDecl) bool {
	return s.public[d.pos] || s.usedIn(s.outside, d)
}

// surfaceEntry is one allowlist line: pkg Name reason.
type surfaceEntry struct {
	pkg, name, reason string
	line              int
}

func (e surfaceEntry) key() string { return e.pkg + " " + e.name }

func parseSurfaceAllowlist(src string) ([]surfaceEntry, []string) {
	var entries []surfaceEntry
	var problems []string
	sc := bufio.NewScanner(strings.NewReader(src))
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 3 {
			problems = append(problems, fmt.Sprintf("allowlist line %d: want \"pkg Name reason\", got %q", line, text))
			continue
		}
		entries = append(entries, surfaceEntry{pkg: f[0], name: f[1], reason: f[2], line: line})
	}
	return entries, problems
}

// surfaceResult is the gate's verdict on one tree and allowlist.
type surfaceResult struct {
	problems []string
	decls    int
	unused   map[string]int // per package: names without an outside use
	reasons  map[string]int // allowlist entries per reason
}

// checkSurface holds a tree's exported names to an allowlist. It fails an
// exported name with no outside use and no entry, an entry whose name is
// gone or now has an outside use (so the list only shrinks), an entry with
// an unknown reason, and an entry whose reason its name does not meet.
func checkSurface(s *surfaceScan, allowlist string) surfaceResult {
	entries, problems := parseSurfaceAllowlist(allowlist)
	r := surfaceResult{problems: problems, decls: len(s.decls), unused: map[string]int{}, reasons: map[string]int{}}
	decls := map[string]surfaceDecl{}
	for _, d := range s.decls {
		decls[d.key()] = d
	}
	allowed := map[string]surfaceEntry{}
	for _, e := range entries {
		where := fmt.Sprintf("allowlist line %d: %s", e.line, e.key())
		if _, dup := allowed[e.key()]; dup {
			r.problems = append(r.problems, where+": listed twice")
			continue
		}
		allowed[e.key()] = e
		if !surfaceReasons[e.reason] {
			r.problems = append(r.problems, fmt.Sprintf("%s: unknown reason %q", where, e.reason))
			continue
		}
		r.reasons[e.reason]++
		d, ok := decls[e.key()]
		switch {
		case !ok:
			r.problems = append(r.problems, where+": no such exported name; delete the entry")
		case s.usedOutside(d):
			r.problems = append(r.problems, where+": another package uses it now; delete the entry")
		case e.reason == "json" && !d.field:
			r.problems = append(r.problems, where+": json applies to struct fields only")
		case e.reason == "interface" && !d.method && !d.iface:
			r.problems = append(r.problems, where+": interface applies to interfaces and methods only")
		case e.reason == "perf" && !s.usedIn(s.perf, d):
			r.problems = append(r.problems, where+": perf/ does not use it")
		case e.reason == "test-helper" && !s.usedIn(s.tests, d):
			r.problems = append(r.problems, where+": no other package's test uses it")
		}
	}
	for _, d := range s.decls {
		if s.usedOutside(d) {
			continue
		}
		r.unused[d.pkg]++
		if _, ok := allowed[d.key()]; !ok {
			r.problems = append(r.problems, fmt.Sprintf("internal/%s: %s is exported, but no other package uses it: unexport or delete it, or allowlist it with a reason", d.pkg, d.name))
		}
	}
	return r
}

// TestExportedNamesHaveOutsideUsers is the gate on the real tree.
func TestExportedNamesHaveOutsideUsers(t *testing.T) {
	s, err := scanSurface(os.DirFS("."), "wanshuffle")
	if err != nil {
		t.Fatal(err)
	}
	allowlist, err := os.ReadFile(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	r := checkSurface(s, string(allowlist))
	for _, p := range r.problems {
		t.Error(p)
	}
	total := 0
	for _, n := range r.unused {
		total += n
	}
	t.Logf("%d exported declarations under internal/, %d without an outside user", r.decls, total)
	for _, pkg := range sortedKeys(r.unused) {
		t.Logf("  %-12s %d", pkg, r.unused[pkg])
	}
	t.Logf("allowlist by reason:")
	for _, reason := range sortedKeys(r.reasons) {
		t.Logf("  %-12s %d", reason, r.reasons[reason])
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSurfaceGateOnFixture runs the scanner over a small fixture tree,
// kept as one archive so that its .go files stay out of the module.
func TestSurfaceGateOnFixture(t *testing.T) {
	fsys, allowlist := readSurfaceFixture(t, "testdata/surface-fixture.txt")
	s, err := scanSurface(fsys, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	r := checkSurface(s, allowlist)
	want := []string{
		"allowlist line 1: a Gone: no such exported name; delete the entry",
		"allowlist line 2: a Used: another package uses it now; delete the entry",
		`allowlist line 3: a Pending: unknown reason "to-review"`,
		"internal/a: Unused is exported, but no other package uses it: unexport or delete it, or allowlist it with a reason",
		"internal/a: A.N is exported, but no other package uses it: unexport or delete it, or allowlist it with a reason",
	}
	if strings.Join(r.problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(r.problems, "\n"), strings.Join(want, "\n"))
	}
}

// readSurfaceFixture reads a txtar-style archive: "-- name --" lines start
// files. The file named allowlist.txt is returned on its own.
func readSurfaceFixture(t *testing.T, name string) (fstest.MapFS, string) {
	src, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	fsys := fstest.MapFS{}
	var cur string
	for _, line := range strings.SplitAfter(string(src), "\n") {
		if n, ok := strings.CutPrefix(strings.TrimSpace(line), "-- "); ok && strings.HasSuffix(n, " --") {
			cur = strings.TrimSuffix(n, " --")
			fsys[cur] = &fstest.MapFile{}
			continue
		}
		if cur != "" {
			fsys[cur].Data = append(fsys[cur].Data, line...)
		}
	}
	allowlist := string(fsys["allowlist.txt"].Data)
	delete(fsys, "allowlist.txt")
	return fsys, allowlist
}
