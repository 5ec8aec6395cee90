package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The guard type-checks the module with go/types and audits it by object:
// an identifier counts as a use of the declaration it resolves to, never of
// another one spelled the same. Three rules, each a test:
//
//   - (a) TestNoDeadExports: an exported object only its own package's
//     tests use.
//   - (b) TestDeadExportsLocal: an exported package-level object or method
//     no code or test in another directory uses, unless the type of an
//     object another directory uses reaches it.
//   - (c) TestDeadExportsFields: a struct field no non-test code reads, or
//     that neither non-test code nor another package's tests write.
//
// (a) and (b) exempt the members of an iota enumeration, which are used by
// value, and a method that belongs to an interface its type (or a type
// embedding it) satisfies. Only non-main packages are audited: a program's
// own declarations are not an API.

// modulePath is the import path of the module's root.
const modulePath = "anton2"

// auditRoots are the module directories whose Go files the guard reads:
// everything that declares or uses an anton2 name.
var auditRoots = []string{"cmd", "internal", "examples", "benchmark"}

// heldByBenchmark are the (c) findings that benchmark/ alone reads.
// benchmark/ changes only in the PR that re-syncs it (ROADMAP item 1), which
// deletes these with the code that reads them. An entry that stops being a
// finding fails TestDeadExportsFields, so the set only shrinks.
var heldByBenchmark = map[string]string{
	"internal/packet.Packet.ID":                "never written; benchmark/probes.go reads it (ROADMAP 1(e): Packet.ID)",
	"internal/core.ThroughputConfig.PatternID": "never written; benchmark/sims.go reads it (ROADMAP 1(e): ThroughputConfig.PatternID)",
}

// srcFile is one parsed Go file of the module.
type srcFile struct {
	dir  string // directory relative to the module root, slash-separated
	test bool   // a _test.go file
	ast  *ast.File
}

// unit is one type-checked package variant and those of its files the audit
// reads: a test variant re-checks its package's non-test files, which the
// library variant already covers.
type unit struct {
	pkg   *types.Package
	info  *types.Info
	files []srcFile
}

// module type-checks a module's packages from their parsed files. Import
// resolves an anton2/... path to the non-test package of its directory,
// checking it on first use (so packages load in dependency order), and every
// other path through std.
type module struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string][]srcFile
	lib   map[string]*types.Package
	units []unit
}

// loadModule type-checks every package of files, the in-package test
// variant of each and its external test package. Unlike the go command, it
// builds an external test against its package's non-test variant, so such a
// test cannot use a name an in-package test file declares (none does).
func loadModule(fset *token.FileSet, std types.Importer, files []srcFile) (*module, error) {
	m := &module{fset: fset, std: std, dirs: map[string][]srcFile{}, lib: map[string]*types.Package{}}
	for _, f := range files {
		m.dirs[f.dir] = append(m.dirs[f.dir], f)
	}
	for _, dir := range sortedKeys(m.dirs) {
		path := modulePath + "/" + dir
		lib := m.nonTest(path)
		var inPkg, ext []srcFile
		for _, f := range m.dirs[dir] {
			if f.test && strings.HasSuffix(f.ast.Name.Name, "_test") {
				ext = append(ext, f)
			} else if f.test {
				inPkg = append(inPkg, f)
			}
		}
		if len(lib) > 0 {
			if _, err := m.Import(path); err != nil {
				return nil, err
			}
		}
		if len(inPkg) > 0 {
			if _, err := m.check(path, append(lib, inPkg...), inPkg); err != nil {
				return nil, err
			}
		}
		if len(ext) > 0 {
			if _, err := m.check(path+"_test", ext, ext); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func (m *module) nonTest(path string) []srcFile {
	var files []srcFile
	for _, f := range m.dirs[strings.TrimPrefix(path, modulePath+"/")] {
		if !f.test {
			files = append(files, f)
		}
	}
	return files
}

func (m *module) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if p := m.lib[path]; p != nil {
		return p, nil
	}
	files := m.nonTest(path)
	p, err := m.check(path, files, files)
	m.lib[path] = p
	return p, err
}

// check type-checks files as the package path and keeps the unit that
// reads scan.
func (m *module) check(path string, files, scan []srcFile) (*types.Package, error) {
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.ast
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, asts, info)
	if err != nil {
		return nil, err
	}
	m.units = append(m.units, unit{pkg, info, scan})
	return pkg, nil
}

// useSite is where an object is used: the directory of the using file and
// whether that file is a test.
type useSite struct {
	dir  string
	test bool
}

type siteSet map[useSite]bool

// derived is the use a JSON codec, a comparison or a map key makes of a
// field in non-test code.
var derived = useSite{dir: "(derived)"}

// access is how an expression uses the field it selects.
type access int

const (
	read access = iota
	write
	readWrite
)

// exprSite is an expression of a scanned file, with its type information and
// the package-level function or method that encloses it.
type exprSite struct {
	info *types.Info
	expr ast.Expr
	fn   *types.Func
}

// facts is what one pass over the scanned files records. Objects are keyed
// by their declaration's position, which every variant of a package shares,
// and so does every instance of a generic declaration: an instantiated field
// or method sits at its origin's position (types.Var.Origin).
type facts struct {
	objs       map[token.Pos]types.Object
	uses       map[token.Pos]siteSet // object -> where named
	reads      map[token.Pos]siteSet // field -> where read
	writes     map[token.Pos]siteSet // field -> where written
	calls      map[token.Pos][][]exprSite
	encoded    []exprSite // what non-test code hands a JSON encoder
	decoded    []exprSite // and a JSON decoder
	compared   []types.Type
	asserted   map[token.Pos][]types.Type // interface-typed field -> the types asserted from it
	interfaces []*types.Interface         // every interface with methods the module can see
	carriers   map[token.Pos][]types.Type // method -> pointers to the types whose method sets hold it
}

func (fc *facts) record(m map[token.Pos]siteSet, obj types.Object, s useSite) {
	if m[obj.Pos()] == nil {
		m[obj.Pos()] = siteSet{}
	}
	m[obj.Pos()][s] = true
}

// scan records the uses in every scanned file of m, then the interfaces and
// the carriers of every method.
func scan(m *module) *facts {
	fc := &facts{objs: map[token.Pos]types.Object{}, uses: map[token.Pos]siteSet{},
		reads: map[token.Pos]siteSet{}, writes: map[token.Pos]siteSet{},
		calls: map[token.Pos][][]exprSite{}, asserted: map[token.Pos][]types.Type{},
		carriers: map[token.Pos][]types.Type{}}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			fc.interfaces = append(fc.interfaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, u := range m.units {
		for _, f := range u.files {
			fc.scanFile(u.info, f)
		}
		for _, tv := range u.info.Types {
			addIface(tv.Type)
		}
		for _, p := range append([]*types.Package{u.pkg}, u.pkg.Imports()...) {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && (tn.Exported() || p == u.pkg) {
					addIface(tn.Type())
				}
			}
		}
	}
	for _, pkg := range m.lib {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				ptr := types.NewPointer(tn.Type())
				ms := types.NewMethodSet(ptr)
				for i := 0; i < ms.Len(); i++ {
					pos := ms.At(i).Obj().Pos()
					fc.carriers[pos] = append(fc.carriers[pos], ptr)
				}
			}
		}
	}
	return fc
}

// scanFile records f's uses of objects, reads and writes of fields and
// calls, and what its non-test code encodes, decodes, compares and asserts.
func (fc *facts) scanFile(info *types.Info, f srcFile) {
	site := useSite{f.dir, f.test}
	mode := map[*ast.SelectorExpr]access{}
	var stack []ast.Node
	var fn *types.Func
	assert := func(x ast.Expr, t types.Type) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok && !f.test && t != nil {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				fc.asserted[v.Pos()] = append(fc.asserted[v.Pos()], t)
			}
		}
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn, _ = info.Defs[n.Name].(*types.Func)
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if n.Tok == token.ASSIGN {
					markWritten(info, mode, l, write)
				} else if n.Tok != token.DEFINE {
					markWritten(info, mode, l, readWrite)
				}
			}
		case *ast.IncDecStmt:
			markWritten(info, mode, n.X, readWrite)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markWritten(info, mode, n.X, readWrite)
			}
		case *ast.SelectorExpr:
			// A pointer method of an addressable value takes its address.
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				if _, ptr := info.TypeOf(n.X).Underlying().(*types.Pointer); ptrRecv && !ptr {
					markWritten(info, mode, n.X, readWrite)
				}
			}
		case *ast.CallExpr:
			fc.scanCall(info, mode, n, fn, !f.test)
		case *ast.CompositeLit:
			t := info.TypeOf(n).Underlying()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem().Underlying()
			}
			if st, ok := t.(*types.Struct); ok {
				for i, e := range n.Elts {
					if _, keyed := e.(*ast.KeyValueExpr); !keyed {
						fc.record(fc.writes, st.Field(i), site)
					}
				}
			}
		case *ast.BinaryExpr:
			if !f.test && (n.Op == token.EQL || n.Op == token.NEQ) {
				fc.compared = append(fc.compared, info.TypeOf(n.X))
			}
		case *ast.MapType:
			if !f.test {
				fc.compared = append(fc.compared, info.TypeOf(n.Key))
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				assert(n.X, info.TypeOf(n.Type))
			}
		case *ast.TypeSwitchStmt:
			var x ast.Expr
			switch s := n.Assign.(type) {
			case *ast.ExprStmt:
				x = s.X
			case *ast.AssignStmt:
				x = s.Rhs[0]
			}
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					assert(x.(*ast.TypeAssertExpr).X, info.TypeOf(e))
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			fc.objs[obj.Pos()] = obj
			fc.record(fc.uses, obj, site)
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				acc := read
				switch p := stack[len(stack)-2].(type) {
				case *ast.KeyValueExpr:
					if p.Key == n {
						acc = write
					}
				case *ast.SelectorExpr:
					acc = mode[p]
				}
				if acc != write {
					fc.record(fc.reads, v, site)
				}
				if acc != read {
					fc.record(fc.writes, v, site)
				}
			}
		}
		return true
	})
}

// scanCall records a call's arguments by callee, copy's destination as
// written, and the JSON codec calls of non-test code.
func (fc *facts) scanCall(info *types.Info, mode map[*ast.SelectorExpr]access, call *ast.CallExpr, fn *types.Func, code bool) {
	var callee types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee = info.Uses[f]
	case *ast.SelectorExpr:
		callee = info.Uses[f.Sel]
	}
	if b, ok := callee.(*types.Builtin); ok && b.Name() == "copy" {
		markWritten(info, mode, call.Args[0], write)
	}
	f, ok := callee.(*types.Func)
	if !ok {
		return
	}
	args := make([]exprSite, len(call.Args))
	for i, a := range call.Args {
		args[i] = exprSite{info, a, fn}
	}
	fc.calls[f.Pos()] = append(fc.calls[f.Pos()], args)
	if !code || f.Pkg() == nil {
		return
	}
	name := f.Pkg().Path() + "." + f.Name()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		name = recv.Type().String() + "." + f.Name()
	}
	switch name {
	case "encoding/json.Marshal", "encoding/json.MarshalIndent", "*encoding/json.Encoder.Encode":
		fc.encoded = append(fc.encoded, args[0])
	case "encoding/json.Unmarshal":
		fc.decoded = append(fc.decoded, args[1])
	case "*encoding/json.Decoder.Decode":
		fc.decoded = append(fc.decoded, args[0])
	}
}

// markWritten records how writing e uses the fields it selects: e itself,
// and the field holding e's storage when e is a field of a struct value, an
// element of an array or an array sliced.
func markWritten(info *types.Info, mode map[*ast.SelectorExpr]access, e ast.Expr, acc access) {
	for e != nil {
		var x ast.Expr
		switch s := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[s]; sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			mode[s] = acc
			x = s.X
		case *ast.IndexExpr:
			x = s.X
		case *ast.SliceExpr:
			x = s.X
		default:
			return
		}
		e = nil
		switch info.TypeOf(x).Underlying().(type) {
		case *types.Struct, *types.Array:
			e = x
		}
	}
}

// satisfied reports whether method m belongs to an interface that a type
// whose method set holds m satisfies.
func (fc *facts) satisfied(m *types.Func) bool {
	for _, carrier := range fc.carriers[m.Pos()] {
		for _, it := range fc.interfaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() && types.Implements(carrier, it) {
					return true
				}
			}
		}
	}
	return false
}

// export is an exported package-level object or method declared in a
// non-test file of a non-main package.
type export struct {
	name string // "dir.Name" or "dir.Type.Method"
	dir  string
	obj  types.Object
}

// exports lists m's exports, skipping members of iota const blocks.
func exports(m *module) []export {
	enum := map[token.Pos]bool{}
	for _, files := range m.dirs {
		for _, f := range files {
			for _, d := range f.ast.Decls {
				if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.CONST && usesIota(d) {
					for _, s := range d.Specs {
						for _, id := range s.(*ast.ValueSpec).Names {
							enum[id.Pos()] = true
						}
					}
				}
			}
		}
	}
	var out []export
	for _, dir := range sortedKeys(m.dirs) {
		pkg := m.lib[modulePath+"/"+dir]
		if pkg == nil || pkg.Name() == "main" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !enum[obj.Pos()] {
				out = append(out, export{dir + "." + name, dir, obj})
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				n := tn.Type().(*types.Named)
				for i := 0; i < n.NumMethods(); i++ {
					if meth := n.Method(i); meth.Exported() {
						out = append(out, export{dir + "." + name + "." + meth.Name(), dir, meth})
					}
				}
			}
		}
	}
	return out
}

// dirOf is the directory of the package that declares obj.
func dirOf(obj types.Object) string {
	return strings.TrimSuffix(strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/"), "_test")
}

// deadExports returns, sorted, rule (a)'s findings: the exports no non-test
// file and no test in another directory uses. (A name another package's
// tests use is a test seam that cannot move into a _test.go file.)
func deadExports(m *module, fc *facts) []string {
	var dead []string
	for _, e := range exports(m) {
		live := false
		for s := range fc.uses[e.obj.Pos()] {
			live = live || !s.test || s.dir != e.dir
		}
		if f, ok := e.obj.(*types.Func); !live && !(ok && fc.satisfied(f)) {
			dead = append(dead, e.name)
		}
	}
	sort.Strings(dead)
	return dead
}

// localExports returns, sorted, rule (b)'s findings: the exports no code or
// test in another directory uses, that the type of no object another
// directory uses reaches.
func localExports(m *module, fc *facts) []string {
	reach := map[token.Pos]bool{}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			reach[t.Obj().Pos()] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
			if mt, ok := t.(*types.Map); ok {
				walk(mt.Key())
			}
			walk(t.Elem())
		case *types.Signature:
			for _, tu := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tu.Len(); i++ {
					walk(tu.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for pos, obj := range fc.objs {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/") {
			continue
		}
		for s := range fc.uses[pos] {
			if s.dir != dirOf(obj) {
				walk(obj.Type())
				break
			}
		}
	}
	var local []string
	for _, e := range exports(m) {
		live := reach[e.obj.Pos()]
		for s := range fc.uses[e.obj.Pos()] {
			live = live || s.dir != e.dir
		}
		if f, ok := e.obj.(*types.Func); !live && !(ok && fc.satisfied(f)) {
			local = append(local, e.name)
		}
	}
	sort.Strings(local)
	return local
}

// deadFields returns, sorted, rule (c)'s findings: the fields declared in a
// non-test file of a non-main package that no non-test code reads, or that
// neither non-test code nor another directory's tests write. A JSON encoder
// reads, and a decoder writes, the exported fields of what it is handed; ==
// and a map key read every field of a struct.
func deadFields(m *module, fc *facts) []string {
	note := func(to map[token.Pos]siteSet) func(*types.Var) {
		return func(v *types.Var) { fc.record(to, v, derived) }
	}
	for _, t := range fc.resolve(fc.encoded) {
		fc.jsonFields(t, note(fc.reads), map[types.Type]bool{})
	}
	for _, t := range fc.resolve(fc.decoded) {
		fc.jsonFields(t, note(fc.writes), map[types.Type]bool{})
	}
	seen := map[types.Type]bool{}
	for _, t := range fc.compared {
		allFields(t, note(fc.reads), seen)
	}
	owner := map[token.Pos]string{}
	for _, pkg := range m.lib {
		for _, name := range pkg.Scope().Names() {
			if st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					owner[st.Field(i).Pos()] = name
				}
			}
		}
	}
	var dead []string
	for _, u := range m.units {
		dir := u.files[0].dir
		if u.files[0].test || u.pkg.Name() == "main" {
			continue
		}
		for id, obj := range u.info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || v.Embedded() || v.Name() == "_" {
				continue
			}
			read, written := false, false
			for s := range fc.reads[v.Pos()] {
				read = read || !s.test
			}
			for s := range fc.writes[v.Pos()] {
				written = written || !s.test || s.dir != dir
			}
			if !read || !written {
				name := owner[v.Pos()]
				if name == "" {
					p := m.fset.Position(id.Pos())
					name = fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
				}
				dead = append(dead, dir+"."+name+"."+v.Name())
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// resolve returns the static types of sites, following an interface-typed
// parameter to the arguments of its function's calls.
func (fc *facts) resolve(sites []exprSite) []types.Type {
	var out []types.Type
	for len(sites) > 0 {
		s := sites[0]
		sites = sites[1:]
		t := s.info.TypeOf(s.expr)
		if !types.IsInterface(t) {
			out = append(out, t)
			continue
		}
		if id, ok := ast.Unparen(s.expr).(*ast.Ident); ok && s.fn != nil {
			params := s.fn.Type().(*types.Signature).Params()
			for i := 0; i < params.Len(); i++ {
				if params.At(i) == s.info.Uses[id] {
					for _, args := range fc.calls[s.fn.Pos()] {
						sites = append(sites, args[i])
					}
				}
			}
		}
	}
	return out
}

// jsonFields visits the exported fields that encoding/json reads or writes
// in a value of type t: not one a shallower field of the same JSON name
// shadows, nor a `json:"-"` one. An interface-typed field holds the types the
// module asserts it to.
func (fc *facts) jsonFields(t types.Type, visit func(*types.Var), seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case interface{ Elem() types.Type }: // pointer, slice, array, map
		fc.jsonFields(u.Elem(), visit, seen)
	case *types.Struct:
		type field struct {
			v     *types.Var
			depth int
		}
		byName := map[string]field{}
		var fields func(*types.Struct, int)
		fields = func(st *types.Struct, depth int) {
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				tag := reflect.StructTag(st.Tag(i)).Get("json")
				name, _, _ := strings.Cut(tag, ",")
				ft := v.Type()
				if p, ok := ft.Underlying().(*types.Pointer); ok {
					ft = p.Elem()
				}
				inner, isStruct := ft.Underlying().(*types.Struct)
				switch {
				case tag == "-":
				case v.Embedded() && name == "" && isStruct:
					fields(inner, depth+1)
				case v.Exported():
					if name == "" {
						name = v.Name()
					}
					if f, ok := byName[name]; !ok || depth < f.depth {
						byName[name] = field{v, depth}
					}
				}
			}
		}
		fields(u, 0)
		for _, f := range byName {
			visit(f.v)
			fc.jsonFields(f.v.Type(), visit, seen)
			for _, a := range fc.asserted[f.v.Pos()] {
				fc.jsonFields(a, visit, seen)
			}
		}
	}
}

// allFields visits every field that comparing two values of type t reads:
// through struct and array values.
func allFields(t types.Type, visit func(*types.Var), seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			visit(u.Field(i))
			allFields(u.Field(i).Type(), visit, seen)
		}
	case *types.Array:
		allFields(u.Elem(), visit, seen)
	}
}

// usesIota reports whether a const block is an enumeration: its members are
// used by value (as indices or switch labels), not necessarily by name.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unheld returns the findings not held, and the held entries that are not
// findings.
func unheld(findings []string, held map[string]string) (left, stale []string) {
	found := map[string]bool{}
	for _, f := range findings {
		found[f] = true
		if _, ok := held[f]; !ok {
			left = append(left, f)
		}
	}
	for _, h := range sortedKeys(held) {
		if !found[h] {
			stale = append(stale, h)
		}
	}
	return left, stale
}

// findings are the three rules' findings over one module.
type findings struct {
	dead, local, fields []string
}

// fset holds every file the tests parse, and the standard library, which is
// type-checked from source once.
var (
	fset        = token.NewFileSet()
	stdImporter = sync.OnceValue(func() types.Importer { return importer.ForCompiler(fset, "source", nil) })
)

func audit(files []srcFile) (findings, error) {
	m, err := loadModule(fset, stdImporter(), files)
	if err != nil {
		return findings{}, err
	}
	fc := scan(m)
	return findings{deadExports(m, fc), localExports(m, fc), deadFields(m, fc)}, nil
}

// audited is the audit of this module, run once for the three rule tests.
var audited = sync.OnceValues(func() (findings, error) {
	root := filepath.Join("..", "..")
	var files []srcFile
	for _, top := range auditRoots {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			files = append(files, srcFile{dir: filepath.ToSlash(rel), test: strings.HasSuffix(path, "_test.go"), ast: f})
			return err
		})
		if err != nil {
			return findings{}, err
		}
	}
	return audit(files)
})

func auditedModule(t *testing.T) findings {
	t.Helper()
	f, err := audited()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNoDeadExports fails on every exported name that only its own package's
// tests use: delete it, or move it into the test that needs it.
func TestNoDeadExports(t *testing.T) {
	for _, name := range auditedModule(t).dead {
		t.Errorf("dead export %s: no program uses it; delete it or move it into the test that needs it", name)
	}
}

// TestDeadExportsLocal fails on every exported name that no other directory
// uses or reaches: unexport it.
func TestDeadExportsLocal(t *testing.T) {
	for _, name := range auditedModule(t).local {
		t.Errorf("local export %s: no other directory uses it; unexport it", name)
	}
}

// TestDeadExportsFields fails on every struct field that no program reads,
// or none writes: delete it. Each heldByBenchmark entry must still be a
// finding.
func TestDeadExportsFields(t *testing.T) {
	left, stale := unheld(auditedModule(t).fields, heldByBenchmark)
	for _, name := range left {
		t.Errorf("dead field %s: no program reads it, or none writes it; delete it", name)
	}
	for _, name := range stale {
		t.Errorf("held field %s is no longer a finding: delete it from heldByBenchmark", name)
	}
}

// TestDeadExportsRules runs the three rules over small in-memory modules:
// one case per rule and per exemption.
func TestDeadExportsRules(t *testing.T) {
	lib := "package lib\n\nfunc Used() {}\n\nfunc Dead() {}\n"
	app := func(body string) string {
		return "package main\n\nimport \"anton2/internal/lib\"\n\n" + body + "\n"
	}
	cases := []struct {
		name                string
		srcs                map[string]string // path relative to the module root -> source
		dead, local, fields []string          // each rule's findings, sorted
	}{
		{name: "dead func", srcs: map[string]string{
			"internal/lib/lib.go": lib,
			"cmd/app/main.go":     app("func main() { lib.Used() }"),
		}, dead: []string{"internal/lib.Dead"}, local: []string{"internal/lib.Dead"}},
		{name: "same spelling in another package", srcs: map[string]string{
			// A spelling matcher counts main's own Dead as a use of lib.Dead.
			"internal/lib/lib.go": lib,
			"cmd/app/main.go":     app("func Dead() {}\n\nfunc main() { lib.Used(); Dead() }"),
		}, dead: []string{"internal/lib.Dead"}, local: []string{"internal/lib.Dead"}},
		{name: "used only by its own tests", srcs: map[string]string{
			"internal/lib/lib.go":      lib,
			"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestDead(t *testing.T) { Dead() }\n",
			"cmd/app/main.go":          app("func main() { lib.Used() }"),
		}, dead: []string{"internal/lib.Dead"}, local: []string{"internal/lib.Dead"}},
		{name: "used by another package's tests", srcs: map[string]string{
			"internal/lib/lib.go":      lib,
			"internal/use/use_test.go": "package use\n\nimport (\n\t\"testing\"\n\n\t\"anton2/internal/lib\"\n)\n\nfunc TestX(t *testing.T) { lib.Used(); lib.Dead() }\n",
		}},
		{name: "used from benchmark/ and examples/", srcs: map[string]string{
			"internal/lib/lib.go":   lib,
			"benchmark/main.go":     app("func main() { lib.Used() }"),
			"examples/demo/main.go": app("func main() { lib.Dead() }"),
			// A program's own exported names are not an API.
			"benchmark/probe.go": "package main\n\nfunc Probe() {}\n",
		}},
		{name: "used within its own package", srcs: map[string]string{
			"internal/lib/lib.go": "package lib\n\nfunc Helper() {}\n\nfunc run() { Helper() }\n",
		}, local: []string{"internal/lib.Helper"}},
		{name: "dead method", srcs: map[string]string{
			"internal/lib/lib.go": "package lib\n\ntype T struct{}\n\nfunc (t *T) Peek() {}\n\nfunc New() *T { return new(T) }\n",
			"cmd/app/main.go":     app("func main() { lib.New() }"),
		}, dead: []string{"internal/lib.T.Peek"}, local: []string{"internal/lib.T.Peek"}},
		{name: "reachable through a cross-directory signature", srcs: map[string]string{
			"internal/lib/lib.go": `package lib

type Opts struct{ N int }

type Res struct{ V int }

type Local struct{}

func Run(o Opts) Res { _ = Local{}; return Res{V: o.N} }
`,
			"cmd/app/main.go": app("func main() { r := lib.Run(lib.Opts{N: 1}); println(r.V) }"),
		}, local: []string{"internal/lib.Local"}},
		{name: "iota members and interface methods", srcs: map[string]string{
			// String satisfies fmt.Stringer; base.Area satisfies Shape
			// through Square, which embeds base.
			"internal/lib/lib.go": `package lib

import "fmt"

type Kind int

const (
	A Kind = iota
	B
)

func (k Kind) String() string { return fmt.Sprint(int(k)) }

type Shape interface{ Area() int }

type base struct{}

func (base) Area() int { return 1 }

type Square struct{ base }

func Make() Shape { return Square{} }
`,
			"cmd/app/main.go": app("func main() { println(lib.Make().Area(), lib.A) }"),
		}, local: []string{"internal/lib.Square"}},
		{name: "JSON, assertion and map-key reads", srcs: map[string]string{
			// Row and Box reach the encoder through encode's parameter,
			// Point through Box.Value's assertion; Edge is a map key.
			"internal/lib/lib.go": `package lib

import "encoding/json"

type Row struct {
	Name  string
	Count int ` + "`json:\"count\"`" + `
	Skip  int ` + "`json:\"-\"`" + `
	note  string
}

type Box struct{ Value any }

type Point struct{ X int }

type Edge struct{ From, To int }

func encode(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

func Emit(n int) ([]byte, []byte) {
	return encode(Row{Name: "r", Count: n, Skip: n, note: "n"}), encode(Box{Value: Point{X: n}})
}

func IsPoint(b Box) bool {
	_, ok := b.Value.(Point)
	return ok
}

func Seen(a, b int) bool {
	m := map[Edge]bool{{a, b}: true}
	return m[Edge{b, a}]
}
`,
			"cmd/app/main.go": app("func main() { lib.Emit(1); println(lib.IsPoint(lib.Box{}), lib.Seen(1, 2)) }"),
		}, local: []string{"internal/lib.Edge", "internal/lib.Point", "internal/lib.Row"},
			fields: []string{"internal/lib.Row.Skip", "internal/lib.Row.note"}},
		{name: "copy and element-address writes", srcs: map[string]string{
			"internal/lib/lib.go": `package lib

type Cell struct{ V int }

type Table struct {
	Sums  [2]float64
	Cells [2]Cell
	Rows  []int
}

func Fill(src []float64) *Table {
	t := &Table{}
	copy(t.Sums[:], src)
	c := &t.Cells[1]
	c.V = 2
	return t
}

func (t *Table) Total() float64 { return t.Sums[0] + float64(t.Cells[1].V+len(t.Rows)) }
`,
			"cmd/app/main.go": app("func main() { println(lib.Fill(nil).Total()) }"),
		}, fields: []string{"internal/lib.Table.Rows"}},
		{name: "generic field", srcs: map[string]string{
			// q is read through Pipe[int], an instance of the declared field.
			"internal/lib/lib.go": `package lib

type Pipe[T any] struct {
	q []T
	n int
}

func (p *Pipe[T]) Push(v T) { p.q = append(p.q, v) }

func Ints() int {
	p := Pipe[int]{n: 1}
	p.Push(1)
	return len(p.q)
}
`,
			"cmd/app/main.go": app("func main() { var p lib.Pipe[string]; p.Push(\"x\"); println(lib.Ints()) }"),
		}, fields: []string{"internal/lib.Pipe.n"}},
		{name: "fields another package's tests write and read", srcs: map[string]string{
			// Config.Skip is a test seam; a test that only reads Stats.N
			// does not keep it.
			"internal/lib/lib.go": `package lib

type Config struct{ Skip bool }

type Stats struct{ N int }

func Run(c Config) Stats {
	if c.Skip {
		return Stats{}
	}
	return Stats{N: 1}
}
`,
			"cmd/app/main.go":          app("func main() { lib.Run(lib.Config{}) }"),
			"internal/use/use_test.go": "package use\n\nimport (\n\t\"testing\"\n\n\t\"anton2/internal/lib\"\n)\n\nfunc TestRun(t *testing.T) {\n\tif lib.Run(lib.Config{Skip: true}).N != 0 {\n\t\tt.Fail()\n\t}\n}\n",
		}, fields: []string{"internal/lib.Stats.N"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var files []srcFile
			for path, src := range tc.srcs {
				f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, srcFile{dir: filepath.Dir(path), test: strings.HasSuffix(path, "_test.go"), ast: f})
			}
			got, err := audit(files)
			if err != nil {
				t.Fatal(err)
			}
			if want := (findings{tc.dead, tc.local, tc.fields}); !reflect.DeepEqual(got, want) {
				t.Errorf("findings (dead, local, fields) = %q, want %q", got, want)
			}
		})
	}
	t.Run("held set", func(t *testing.T) {
		left, stale := unheld([]string{"a.X.f", "b.Y.g"}, map[string]string{"b.Y.g": "held", "c.Z.h": "held"})
		if !reflect.DeepEqual(left, []string{"a.X.f"}) || !reflect.DeepEqual(stale, []string{"c.Z.h"}) {
			t.Errorf("unheld = %q, %q; want [a.X.f], [c.Z.h]", left, stale)
		}
	})
}
