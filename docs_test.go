package cmpmem_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose code references must stay true.
var docFiles = []string{"DESIGN.md", "README.md"}

// stdPackages are the standard-library packages the documents name; a
// reference into one is not resolved against this repository.
var stdPackages = map[string]bool{
	"atomic": true, "binary": true, "io": true, "reflect": true, "runtime": true,
}

// TestDocsNameWhatExists checks that DESIGN.md and README.md name only
// what the code has: every backticked `pkg.Name`, `pkg.Type.Member` or
// `Type.Member` resolves to a declaration in this repository's Go
// source, and every flag they give `cosim` or `cosimd` — or name on its
// own — is defined by that program (a flag named alone, by any program
// or test here). File names, BENCHMARK.json metric names and the
// standard library are exempt.
func TestDocsNameWhatExists(t *testing.T) {
	src := scanSource(t)
	metrics := benchMetrics(t)
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		spans, commands := codeOf(string(b))
		for _, s := range spans {
			if strings.HasPrefix(s, "-") {
				commands = append(commands, "- "+s)
				continue
			}
			commands = append(commands, s)
			if metrics[s] {
				continue
			}
			if why := src.resolve(s); why != "" {
				t.Errorf("%s: `%s`: %s", doc, s, why)
			}
		}
		for _, c := range commands {
			for _, f := range commandFlags(c) {
				switch {
				case src.flags[f.prog][f.name]:
				case f.prog == "":
					t.Errorf("%s: `%s`: no program or test here defines -%s", doc, c, f.name)
				default:
					t.Errorf("%s: `%s`: %s has no flag -%s", doc, c, f.prog, f.name)
				}
			}
		}
	}
}

// designLines is DESIGN.md's length in lines. A change that shortens
// the document lowers it to the new length, and no change raises it:
// the design is one section per pipeline stage, with history in
// CHANGES.md.
const designLines = 899

// TestDesignLineCeiling holds DESIGN.md to exactly designLines lines:
// longer fails, and so does shorter, so the ceiling only falls.
func TestDesignLineCeiling(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	switch n := strings.Count(string(b), "\n"); {
	case n > designLines:
		t.Errorf("DESIGN.md has %d lines, over its ceiling of %d: shorten it, do not raise the ceiling", n, designLines)
	case n < designLines:
		t.Errorf("DESIGN.md has %d lines, under its ceiling of %d: lower designLines to %d", n, designLines, n)
	}
}

// designRef matches a reference into DESIGN.md from another file: the
// document's name (`DESIGN.md` or `DESIGN`, backticked or not) followed
// by a section sign and number, a list of them joined by commas or
// "and", or "ablation" and a number. A Go comment may wrap between the
// name and the number.
var designRef = regexp.MustCompile("DESIGN(?:\\.md)?`?(?:\\s|//)+(?:(§\\d+(?:(?:,\\s*|\\s+and\\s+)§\\d+)*)|ablation\\s+(\\d+))")

// sectionNum matches one section sign and its number.
var sectionNum = regexp.MustCompile(`§(\d+)`)

// TestDesignSectionRefsResolve checks that every section or ablation
// number a reference into DESIGN.md names exists there: a `## N.`
// heading, or item N of the numbered list under the heading that names
// the ablations. It reads the Go files outside bench/ (tests included),
// README.md and EXPERIMENTS.md, and DESIGN.md's own bare § references.
// CHANGES.md and ROADMAP.md are history and may cite old numbers.
func TestDesignSectionRefsResolve(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(b)
	sections, ablations := map[string]bool{}, map[string]bool{}
	inAblations := false
	for _, line := range strings.Split(design, "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			num, _, _ := strings.Cut(h, ".")
			sections[num] = true
			inAblations = strings.Contains(strings.ToLower(h), "ablation")
			continue
		}
		if num, _, ok := strings.Cut(line, ". "); ok && inAblations && num != "" && strings.Trim(num, "0123456789") == "" {
			ablations[num] = true
		}
	}
	if len(sections) == 0 || len(ablations) == 0 {
		t.Fatalf("DESIGN.md: found %d numbered sections and %d ablations", len(sections), len(ablations))
	}
	check := func(file, text string, pos int, kind string, nums map[string]bool, num string) {
		if !nums[num] {
			line := strings.Count(text[:pos], "\n") + 1
			t.Errorf("%s:%d: DESIGN.md has no %s %s", file, line, kind, num)
		}
	}
	for _, m := range sectionNum.FindAllStringSubmatchIndex(design, -1) {
		check("DESIGN.md", design, m[0], "section", sections, design[m[2]:m[3]])
	}
	files := []string{"README.md", "EXPERIMENTS.md"}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata" || p == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range designRef.FindAllStringSubmatchIndex(text, -1) {
			if m[2] >= 0 {
				for _, s := range sectionNum.FindAllStringSubmatchIndex(text[m[2]:m[3]], -1) {
					check(f, text, m[2]+s[0], "section", sections, text[m[2]+s[2]:m[2]+s[3]])
				}
				continue
			}
			check(f, text, m[4], "ablation", ablations, text[m[4]:m[5]])
		}
	}
}

// TestProgramDocsNameEveryFlag is the reverse check for the programs:
// every flag cosim or cosimd defines appears as -name in that command's
// package doc comment, its usage page.
func TestProgramDocsNameEveryFlag(t *testing.T) {
	src := scanSource(t)
	for _, prog := range []string{"cosim", "cosimd"} {
		if len(src.flags[prog]) == 0 || src.docs[prog] == "" {
			t.Fatalf("%s: found no flags or no package doc", prog)
		}
		for name := range src.flags[prog] {
			if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`).MatchString(src.docs[prog]) {
				t.Errorf("%s defines -%s, which its package doc does not name", prog, name)
			}
		}
	}
}

// identRef matches a dotted identifier reference, with an optional
// pointer receiver and call parentheses: `pkg.Name`, `Type.Method()`,
// `(*T).M`, `pkg.Type.Field`.
var identRef = regexp.MustCompile(`^\(?\*?([A-Za-z_]\w*)\)?\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(\))?$`)

// fileName matches a span that names a file.
var fileName = regexp.MustCompile(`\.(md|go|json|jsonl|txt)(\.\d+)?$`)

// source is what the repository's Go files declare.
type source struct {
	// pkgs maps a package name to the top-level names it declares.
	pkgs map[string]map[string]bool
	// types maps a type name to its fields and methods, and embeds to the
	// type names it embeds (whose members it promotes).
	types  map[string]map[string]bool
	embeds map[string][]string
	// flags maps a program ("cosim", "cosimd", or "" for any program or
	// test) to the flags it defines, and docs a program to its package
	// doc comment.
	flags map[string]map[string]bool
	docs  map[string]string
}

// resolve returns why the dotted reference s names nothing, or "" when
// it resolves (or is exempt).
func (src *source) resolve(s string) string {
	m := identRef.FindStringSubmatch(s)
	if m == nil || fileName.MatchString(s) {
		return ""
	}
	a, b, c := m[1], m[2], m[3]
	switch {
	case stdPackages[a]:
		return ""
	case src.pkgs[a] != nil:
		if !src.pkgs[a][b] {
			return "package " + a + " declares no " + b
		}
		if c != "" && !src.member(b, c) {
			return "type " + b + " has no field or method " + c
		}
		return ""
	case src.types[a] != nil:
		if !src.member(a, b) {
			return "type " + a + " has no field or method " + b
		}
		return ""
	}
	return "no package or type " + a
}

// member reports whether a type named typ has a field or method name,
// its own or promoted from an embedded type.
func (src *source) member(typ, name string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(t string) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if src.types[t][name] {
			return true
		}
		for _, e := range src.embeds[t] {
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typ)
}

// scanSource parses every Go file in the repository, tests included.
func scanSource(t *testing.T) *source {
	src := &source{
		pkgs:   map[string]map[string]bool{},
		types:  map[string]map[string]bool{},
		embeds: map[string][]string{},
		flags:  map[string]map[string]bool{"cosim": {}, "cosimd": {}, "": {}},
		docs:   map[string]string{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		src.add(f, filepath.ToSlash(filepath.Dir(p)), strings.HasSuffix(p, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// add records file f of the package in directory dir.
func (src *source) add(f *ast.File, dir string, test bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if src.pkgs[pkg] == nil {
		src.pkgs[pkg] = map[string]bool{}
	}
	decls := src.pkgs[pkg]
	members := func(typ string) map[string]bool {
		if src.types[typ] == nil {
			src.types[typ] = map[string]bool{}
		}
		return src.types[typ]
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[d.Name.Name] = true
			} else {
				members(typeName(d.Recv.List[0].Type))[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					decls[s.Name.Name] = true
					m := members(s.Name.Name)
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							e := typeName(fl.Type)
							m[e] = true
							src.embeds[s.Name.Name] = append(src.embeds[s.Name.Name], e)
						}
						for _, n := range fl.Names {
							m[n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decls[n.Name] = true
					}
				}
			}
		}
	}
	// Flags: a cosim or cosimd program file defines its own; every other
	// file defines flags only a span naming the flag alone may use.
	prog := ""
	if !test && (dir == "cmd/cosim" || dir == "cmd/cosimd") {
		prog = path.Base(dir)
		if f.Doc != nil {
			src.docs[prog] += f.Doc.Text()
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners.MatchString(sel.Sel.Name) {
			return true
		}
		arg := 0 // the name; then the default (or a Func's usage) and usage
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) == arg+3 {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					src.flags[prog][name] = true
					src.flags[""][name] = true
				}
			}
		}
		return true
	})
}

// flagDefiners matches the flag package's definers.
var flagDefiners = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func|Text)(Var)?$`)

// typeName returns the name of a (possibly pointer, qualified or
// generic) type expression.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// codeOf returns a markdown document's inline code spans (a span may
// wrap lines within its paragraph) and its fenced code lines.
func codeOf(doc string) (spans, fenced []string) {
	var para []string
	flush := func() {
		parts := strings.Split(strings.Join(para, " "), "`")
		for i := 1; i < len(parts); i += 2 {
			spans = append(spans, strings.TrimSpace(parts[i]))
		}
		para = para[:0]
	}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			flush()
			inFence = !inFence
		case inFence:
			fenced = append(fenced, line)
		case strings.TrimSpace(line) == "":
			flush()
		default:
			para = append(para, line)
		}
	}
	flush()
	return spans, fenced
}

// docFlag is one flag a document gives a program ("" for a flag named
// alone).
type docFlag struct{ prog, name string }

// commandFlags returns the flags a command line gives cosim or cosimd,
// or, for "- -flag ...", the flag named alone. A shell operator ends the
// command.
func commandFlags(line string) []docFlag {
	var out []docFlag
	prog := "none"
	for _, w := range strings.Fields(line) {
		switch {
		case w == "-":
			prog = ""
		case w == "|" || w == "&&" || w == ";" || strings.HasPrefix(w, ">") || strings.HasPrefix(w, "2>"):
			prog = "none"
		case path.Base(w) == "cosim" || path.Base(w) == "cosimd":
			prog = path.Base(w)
		case prog != "none" && len(w) > 1 && w[0] == '-' && w[1] != '-' && !strings.ContainsAny(w[1:2], "0123456789"):
			name, _, _ := strings.Cut(w[1:], "=")
			out = append(out, docFlag{prog, name})
			if prog == "" {
				return out // a flag named alone: the rest is its value
			}
		}
	}
	return out
}

// benchMetrics returns BENCHMARK.json's metric names, which the
// documents cite as `layer.metric`.
func benchMetrics(t *testing.T) map[string]bool {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = true
	}
	return out
}
