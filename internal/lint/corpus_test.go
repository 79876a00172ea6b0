package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Each directory under testdata/ is a tiny Go module exercising one
// analyzer (when the directory is named after a check) or the full
// analyzer set plus directive validation (otherwise). Expectations are
// //lintwant comments in the corpus sources:
//
//	expr() //lintwant check            this line must be flagged
//	//lintwant check                   (standalone) the NEXT line must be
//
// The first field after //lintwant is a comma-separated list of check
// names; anything after it is commentary. The corpus must produce
// exactly the expected (file, line, check) set — a missing finding is a
// false negative, an extra one a false positive, and both fail.
func TestCorpora(t *testing.T) {
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		ran++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			mod, err := LoadModule(dir)
			if err != nil {
				t.Fatalf("LoadModule: %v", err)
			}
			var checks []string
			if knownCheck(name) {
				checks = []string{name}
			}
			diags, err := Run(mod, checks)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}

			want, err := collectWants(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, d := range diags {
				rel, err := filepath.Rel(dir, d.Pos.Filename)
				if err != nil {
					t.Fatal(err)
				}
				got[wantKey(rel, d.Pos.Line, d.Check)] = true
			}
			for k := range want {
				if !got[k] {
					t.Errorf("missing finding: %s", k)
				}
			}
			for _, d := range diags {
				rel, _ := filepath.Rel(dir, d.Pos.Filename)
				if !want[wantKey(rel, d.Pos.Line, d.Check)] {
					t.Errorf("unexpected finding: %s:%d: %s: %s", rel, d.Pos.Line, d.Check, d.Message)
				}
			}
		})
	}
	if ran == 0 {
		t.Fatal("no corpora found under testdata/")
	}
}

func wantKey(rel string, line int, check string) string {
	return fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), line, check)
}

// collectWants parses the //lintwant expectations out of every non-test
// Go file under root (mirroring the loader's file set).
func collectWants(root string) (map[string]bool, error) {
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !goSource(d.Name()) {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			// gofmt's doc-comment formatter rewrites a standalone
			// //lintwant in doc position to "// lintwant", so both
			// spellings are accepted.
			idx, tag := -1, ""
			for _, t := range []string{"//lintwant", "// lintwant"} {
				if j := strings.Index(line, t); j >= 0 {
					idx, tag = j, t
					break
				}
			}
			if idx < 0 {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(line[idx:], tag))
			if len(fields) == 0 {
				return fmt.Errorf("%s:%d: //lintwant without a check name", rel, i+1)
			}
			target := i + 1 // a trailing comment expects its own line
			if strings.TrimSpace(line[:idx]) == "" {
				// A standalone comment expects the next line, skipping
				// the bare "//" separators gofmt inserts between doc
				// text and //rarlint: directives.
				target = i + 2
				for target-1 < len(lines) && strings.TrimSpace(lines[target-1]) == "//" {
					target++
				}
			}
			for _, c := range strings.Split(fields[0], ",") {
				want[wantKey(rel, target, c)] = true
			}
		}
		return nil
	})
	return want, err
}

// TestCorpusCoverage pins the corpus inventory: every analyzer has a
// dedicated want/nowant corpus, and each corpus actually expects
// findings of its check (an empty corpus would vacuously pass).
func TestCorpusCoverage(t *testing.T) {
	for _, a := range Analyzers() {
		dir, err := filepath.Abs(filepath.Join("testdata", a.Name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("analyzer %s has no corpus: %v", a.Name, err)
			continue
		}
		want, err := collectWants(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for k := range want {
			if strings.HasSuffix(k, ":"+a.Name) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("corpus %s expects no %s findings", a.Name, a.Name)
		}
	}
}

// TestConcurrencyChecksSkipTestFiles pins the -tests contract of
// lockcheck: test files join the type-checked module but contribute no
// findings and no annotations — the corpus test files hold lock-free
// accesses on purpose, and the finding set must be identical with and
// without them loaded.
func TestConcurrencyChecksSkipTestFiles(t *testing.T) {
	for _, name := range []string{"lockcheck"} {
		t.Run(name, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			render := func(mod *Module) []string {
				diags, err := Run(mod, []string{name})
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, d := range diags {
					out = append(out, d.String())
				}
				return out
			}
			plain, err := LoadModule(dir)
			if err != nil {
				t.Fatal(err)
			}
			withTests, err := LoadModuleWithTests(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, want := render(withTests), render(plain)
			if !slices.Equal(got, want) {
				t.Errorf("-tests changed the %s finding set:\nwith tests: %v\nwithout:    %v", name, got, want)
			}
		})
	}
}
