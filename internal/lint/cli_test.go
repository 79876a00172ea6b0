package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainExitCodes pins the exit-code contract CI depends on:
// 0 clean, 1 findings, 2 load/usage error.
func TestMainExitCodes(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, ExitFindings, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "errdiscipline") {
			t.Errorf("stdout lacks a finding line:\n%s", out.String())
		}
		if !strings.Contains(errb.String(), "finding(s)") {
			t.Errorf("stderr lacks the summary line:\n%s", errb.String())
		}
	})

	t.Run("dotdotdot", func(t *testing.T) {
		// go-tool muscle memory: `rarlint dir/...` analyzes dir's module.
		var out, errb strings.Builder
		code := Main([]string{filepath.Join("testdata", "errdiscipline") + "/..."}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitFindings, errb.String())
		}
	})

	t.Run("retired-flags", func(t *testing.T) {
		// -checks and -tests are gone: every run covers every check and
		// loads test files. A caller still passing either gets a usage
		// error and no analysis.
		for _, args := range [][]string{{"-checks", "determinism"}, {"-tests"}} {
			var out, errb strings.Builder
			code := Main(append(args, filepath.Join("testdata", "determinism")), &out, &errb)
			if code != ExitError {
				t.Fatalf("%v: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, ExitError, out.String(), errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("%v still ran the analyzers:\n%s", args, out.String())
			}
			if !strings.Contains(errb.String(), "flag provided but not defined: "+args[0]) {
				t.Errorf("%v: stderr lacks the undefined-flag error:\n%s", args, errb.String())
			}
		}
	})

	t.Run("no-module", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{t.TempDir()}, &out, &errb)
		if code != ExitError {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitError, errb.String())
		}
	})
}

// TestJSONOutput pins the -json schema CI rewrites into GitHub Actions
// annotations: an array of {file,line,col,check,message} records, and a
// literal empty array on a clean run so pipelines always parse stdout.
func TestJSONOutput(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		var out, errb strings.Builder
		code := Main([]string{"-json", filepath.Join("testdata", "errdiscipline")}, &out, &errb)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitFindings, errb.String())
		}
		var recs []jsonDiagnostic
		if err := json.Unmarshal([]byte(out.String()), &recs); err != nil {
			t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
		}
		if len(recs) == 0 {
			t.Fatal("JSON array is empty despite ExitFindings")
		}
		for _, r := range recs {
			if r.File == "" || r.Line <= 0 || r.Col <= 0 || r.Check == "" || r.Message == "" {
				t.Errorf("incomplete record: %+v", r)
			}
			if filepath.IsAbs(r.File) {
				t.Errorf("file %q is absolute; CI annotations need repo-relative paths", r.File)
			}
		}
	})

	t.Run("clean", func(t *testing.T) {
		dir := t.TempDir()
		for name, src := range map[string]string{
			"go.mod":   "module clean\n\ngo 1.22\n",
			"clean.go": "package clean\n",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out, errb strings.Builder
		code := Main([]string{"-json", dir}, &out, &errb)
		if code != ExitClean {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, ExitClean, errb.String())
		}
		if got := strings.TrimSpace(out.String()); got != "[]" {
			t.Errorf("clean -json stdout = %q, want \"[]\"", got)
		}
	})
}

// TestTestsFlag pins the test-file loading of the testsflag corpus,
// whose only violations sit in an in-package and an external test
// file: LoadModule leaves test files out and finds nothing, while Main,
// which always loads them, type-checks and analyzes both.
func TestTestsFlag(t *testing.T) {
	dir := filepath.Join("testdata", "testsflag")

	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(mod, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("without test files: %d findings, want none: %v", len(diags), diags)
	}

	var out, errb strings.Builder
	if code := Main([]string{dir}, &out, &errb); code != ExitFindings {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitFindings, out.String(), errb.String())
	}
	for _, file := range []string{"sim_test.go", "ext_test.go"} {
		if !strings.Contains(out.String(), file) {
			t.Errorf("findings lack the violation in %s:\n%s", file, out.String())
		}
	}
}

// TestRepoIsClean is the acceptance regression: rarlint on this
// repository itself, its test files included, must exit 0 with the full
// three-check suite — every real finding is either fixed or carries an
// audited directive. The hard-coded wantChecks list is deliberate:
// registering a fourth analyzer without extending it (and therefore
// without auditing the tree against it) fails here, so a new check
// cannot ship unwired.
func TestRepoIsClean(t *testing.T) {
	wantChecks := []string{"determinism", "errdiscipline", "lockcheck"}
	as := Analyzers()
	if len(as) != len(wantChecks) {
		t.Fatalf("Analyzers() has %d checks, want %d", len(as), len(wantChecks))
	}
	for i, want := range wantChecks {
		if as[i].Name != want {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, as[i].Name, want)
		}
	}

	var out, errb strings.Builder
	code := Main([]string{filepath.Join("..", "..")}, &out, &errb)
	if code != ExitClean {
		t.Fatalf("rarlint on the repo: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitClean, out.String(), errb.String())
	}
}
