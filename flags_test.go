package mulayer_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryFlagDocumented is the flag witness: every flag a command under
// cmd/ defines must be passed to that command in a fenced shell example
// of README.md or docs/*.md, and every flag such an example passes must
// exist. A knob nobody can find in an example is either documented here
// or deleted.
func TestEveryFlagDocumented(t *testing.T) {
	defined := definedFlags(t)
	if len(defined) == 0 {
		t.Fatal("no commands found under cmd/")
	}
	passed := documentedFlags(t)
	for _, cmd := range sortedKeys(defined) {
		for _, name := range sortedKeys(defined[cmd]) {
			if !passed[cmd][name] {
				t.Errorf("%s -%s is passed in no fenced shell example of README.md or docs/*.md", cmd, name)
			}
		}
	}
	for _, cmd := range sortedKeys(passed) {
		if defined[cmd] == nil {
			t.Errorf("the examples run %s, which is no command under cmd/", cmd)
			continue
		}
		for _, name := range sortedKeys(passed[cmd]) {
			if !defined[cmd][name] {
				t.Errorf("an example passes %s -%s, which %s does not define", cmd, name, cmd)
			}
		}
	}
}

// definedFlags parses cmd/*/main.go and returns, per command, the names
// of the flags its flag.X calls define.
func definedFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		out[cmd] = map[string]bool{}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			// flag.String(name, ...) and friends take the name first;
			// flag.StringVar(&v, name, ...) and friends second.
			base := strings.TrimSuffix(sel.Sel.Name, "Var")
			if !flagDefiners[base] {
				return true
			}
			arg := 0
			if base != sel.Sel.Name {
				arg = 1
			}
			if len(call.Args) <= arg {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag.%s without a literal name", fset.Position(call.Pos()), sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out[cmd][name] = true
			return true
		})
	}
	return out
}

// flagDefiners names the flag package functions that define a flag, with
// any Var suffix trimmed (flag.Var itself trims to "").
var flagDefiners = map[string]bool{
	"": true, "Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Text": true, "Uint": true, "Uint64": true,
}

var (
	// fenceRE matches the opening line of a fenced shell block.
	fenceRE = regexp.MustCompile("^```(bash|sh|shell|console)\\s*$")
	// cmdRE matches a word that runs one of the commands: the bare
	// binary name or any path ending in it (./cmd/mulayer-serve,
	// /tmp/mulayer-serve).
	cmdRE = regexp.MustCompile(`^(?:\S*/)?(mulayer-[a-z]+)$`)
	// flagRE matches a flag word, -name or -name=value.
	flagRE = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)
)

// documentedFlags scans the fenced shell blocks of README.md and
// docs/*.md and returns, per command, the flags passed to it.
func documentedFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	for _, path := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range shellBlocks(string(data)) {
			for _, line := range strings.Split(strings.ReplaceAll(block, "\\\n", " "), "\n") {
				cmd := ""
				for _, w := range shellWords(line) {
					switch {
					case w == "|" || w == "&" || w == ";" || w == "&&" || w == "||":
						cmd = ""
					case cmdRE.MatchString(w):
						cmd = cmdRE.FindStringSubmatch(w)[1]
						if out[cmd] == nil {
							out[cmd] = map[string]bool{}
						}
					case cmd != "" && flagRE.MatchString(w):
						out[cmd][flagRE.FindStringSubmatch(w)[1]] = true
					}
				}
			}
		}
	}
	return out
}

// shellBlocks returns the bodies of the fenced shell blocks of a
// Markdown document.
func shellBlocks(doc string) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case !in && fenceRE.MatchString(trimmed):
			in, cur = true, nil
		case in && trimmed == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	return blocks
}

// shellWords splits one shell line into words up to its comment,
// keeping quoted strings whole (quotes included, so a quoted word never
// reads as a command or a flag) and making the control operators |, &
// and ; (and their doubled forms) words of their own.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '#' && cur.Len() == 0:
			return words
		case c == '\'' || c == '"':
			end := len(line) - 1
			if j := strings.IndexByte(line[i+1:], c); j >= 0 {
				end = i + 1 + j
			}
			cur.WriteString(line[i : end+1])
			i = end
		case c == ' ' || c == '\t':
			flush()
		case c == '|' || c == '&' || c == ';':
			flush()
			op := string(c)
			if i+1 < len(line) && line[i+1] == c {
				op += string(c)
				i++
			}
			words = append(words, op)
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return words
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
