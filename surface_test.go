package wanshuffle_test

// An exported name under internal/ is one another package uses. The gate
// below scans the source with go/parser: every exported top-level func,
// type, var and const, and every exported method and field of an exported
// type, needs a use in a non-test file of another package of this module
// (perf/ is a module of its own) or an entry in the committed allowlist
// that gives one of four reasons it stays exported anyway.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

const surfaceAllowlist = "testdata/exported-allowlist.txt"

// surfaceReasons are the only reasons a name without an outside user stays
// exported; the allowlist's header says what each one means.
var surfaceReasons = map[string]bool{"json": true, "interface": true, "test-helper": true, "perf": true}

// surfaceDecl is one exported declaration under internal/: Name is a
// top-level name or Type.Member.
type surfaceDecl struct {
	pkg, name string
	field     bool // a struct field
	method    bool // a method, or an interface's method
	iface     bool // an interface type
}

func (d surfaceDecl) key() string { return d.pkg + " " + d.name }

func (d surfaceDecl) member() string {
	if i := strings.IndexByte(d.name, '.'); i >= 0 {
		return d.name[i+1:]
	}
	return ""
}

// surfaceUses is what one group of files names: top-level names of other
// packages, by import path, and member names seen as a selector or a
// composite-literal key.
type surfaceUses struct {
	qualified map[string]bool // "import/path Name"
	members   map[string]bool
}

// surfaceScan is what the gate knows about a tree: the declarations, and
// the uses of each kind of file keyed by the package (directory) they
// belong to. A test file in package x_test is its own package.
type surfaceScan struct {
	module  string
	decls   []surfaceDecl
	outside map[string]*surfaceUses // non-test files of the root module
	tests   map[string]*surfaceUses // test files of the root module
	perf    map[string]*surfaceUses // perf/'s files
	aliased map[string]bool         // "pkg Type" that the root package aliases
}

// scanSurface parses every .go file under fsys, whose root is the module
// named module.
func scanSurface(fsys fs.FS, module string) (*surfaceScan, error) {
	s := &surfaceScan{
		module:  module,
		outside: map[string]*surfaceUses{},
		tests:   map[string]*surfaceUses{},
		perf:    map[string]*surfaceUses{},
		aliased: map[string]bool{},
	}
	fset := token.NewFileSet()
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
		s.add(p, f)
		return nil
	})
	return s, err
}

func (s *surfaceScan) add(p string, f *ast.File) {
	dir := path.Dir(p)
	test := strings.HasSuffix(p, "_test.go")
	group := dir
	if test && strings.HasSuffix(f.Name.Name, "_test") {
		group += " [external test]"
	}
	var uses map[string]*surfaceUses
	switch {
	case dir == "perf" || strings.HasPrefix(dir, "perf/"):
		uses = s.perf
	case test:
		uses = s.tests
	default:
		uses = s.outside
	}
	u := uses[group]
	if u == nil {
		u = &surfaceUses{qualified: map[string]bool{}, members: map[string]bool{}}
		uses[group] = u
	}
	imports := map[string]string{} // import name -> import path
	for _, spec := range f.Imports {
		ip, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(ip)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = ip
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			u.members[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				u.qualified[imports[x.Name]+" "+n.Sel.Name] = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok {
						u.members[k.Name] = true
					}
				}
			}
		}
		return true
	})
	if dir == "." && !test {
		s.addAliases(f, imports)
	}
	if !test && (dir == "internal" || strings.HasPrefix(dir, "internal/")) {
		s.addDecls(strings.TrimPrefix(strings.TrimPrefix(dir, "internal"), "/"), f)
	}
}

// addAliases records the internal types a root-package file aliases: they
// are public API, so their methods and fields count as used.
func (s *surfaceScan) addAliases(f *ast.File, imports map[string]string) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			sel, ok := ts.Type.(*ast.SelectorExpr)
			if !ts.Assign.IsValid() || !ok {
				continue
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if ip, ok := strings.CutPrefix(imports[x.Name], s.module+"/internal/"); ok {
					s.aliased[ip+" "+sel.Sel.Name] = true
				}
			}
		}
	}
}

func (s *surfaceScan) addDecls(pkg string, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				s.decls = append(s.decls, surfaceDecl{pkg: pkg, name: d.Name.Name})
				continue
			}
			if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
				s.decls = append(s.decls, surfaceDecl{pkg: pkg, name: recv + "." + d.Name.Name, method: true})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							s.decls = append(s.decls, surfaceDecl{pkg: pkg, name: n.Name})
						}
					}
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						_, iface := sp.Type.(*ast.InterfaceType)
						s.decls = append(s.decls, surfaceDecl{pkg: pkg, name: sp.Name.Name, iface: iface})
						s.addMembers(pkg, sp)
					}
				}
			}
		}
	}
}

// addMembers declares a type's named exported fields, or its interface's
// exported methods. An embedded field is its type, declared on its own.
func (s *surfaceScan) addMembers(pkg string, ts *ast.TypeSpec) {
	var fields *ast.FieldList
	method := false
	switch t := ts.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields, method = t.Methods, true
	default:
		return
	}
	for _, fld := range fields.List {
		for _, n := range fld.Names {
			if n.IsExported() {
				s.decls = append(s.decls, surfaceDecl{pkg: pkg, name: ts.Name.Name + "." + n.Name, field: !method, method: method})
			}
		}
	}
}

func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// usedIn reports whether a group of uses outside d's own package names d.
func (s *surfaceScan) usedIn(uses map[string]*surfaceUses, d surfaceDecl) bool {
	own := "internal/" + d.pkg
	qualified := s.module + "/internal/" + d.pkg + " " + d.name
	member := d.member()
	for group, u := range uses {
		if group == own {
			continue
		}
		if member == "" && u.qualified[qualified] || member != "" && u.members[member] {
			return true
		}
	}
	return false
}

// usedOutside reports whether a non-test file of another package of the
// module uses d, or d is a member of a type the root package aliases.
func (s *surfaceScan) usedOutside(d surfaceDecl) bool {
	if m := d.member(); m != "" && s.aliased[d.pkg+" "+strings.TrimSuffix(d.name, "."+m)] {
		return true
	}
	return s.usedIn(s.outside, d)
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
