package tmsync_test

// Smoke tests for the runnable surfaces of the repository: every program
// under examples/ and cmd/ is compiled once and executed with a small
// workload, so a refactor of the engines or mechanisms cannot silently
// break a run path no unit test happens to cover. Each run asserts exit
// status 0 and, where the program prints a verdict, the expected marker
// in its output.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDir compiles every main package once per test binary invocation.
var buildDir struct {
	path string
	err  error
	done bool
}

func smokeBinaries(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	if !buildDir.done {
		buildDir.done = true
		dir, err := os.MkdirTemp("", "tmsync-smoke")
		if err != nil {
			buildDir.err = err
		} else {
			buildDir.path = dir
			cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./...")
			cmd.Dir = repoRoot(t)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildDir.err = &buildError{out: string(out), err: err}
			}
		}
	}
	if buildDir.err != nil {
		t.Fatalf("building binaries: %v", buildDir.err)
	}
	return buildDir.path
}

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// runSmoke executes one built binary with args and returns its output.
func runSmoke(t *testing.T, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(smokeBinaries(t), name)
	cmd := exec.Command(bin, args...)
	cmd.Dir = repoRoot(t) // cmd/loctable reads the repo sources
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		_ = cmd.Process.Kill()
		t.Fatalf("%s %v: wedged", name, args)
	}
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestSmokeExamples(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the run must print
	}{
		{"quickstart", []string{"-engine", "eager"}, "OK"},
		{"barrier", []string{"-engine", "htm", "-workers", "2", "-rounds", "20"}, ""},
		{"compose", []string{"-engine", "lazy"}, "consumed"},
		{"pipeline", []string{"-engine", "hybrid", "-items", "300", "-workers", "2"}, ""},
		{"datastructures", []string{"-engine", "eager", "-jobs", "40", "-workers", "2"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := runSmoke(t, c.name, c.args...)
			if c.want != "" && !strings.Contains(out, c.want) {
				t.Errorf("output lacks %q:\n%s", c.want, out)
			}
			lower := strings.ToLower(out)
			for _, bad := range []string{"panic", "wedged", "mismatch"} {
				if strings.Contains(lower, bad) {
					t.Errorf("output contains %q:\n%s", bad, out)
				}
			}
		})
	}
}

func TestSmokeCommands(t *testing.T) {
	benchOut := filepath.Join(t.TempDir(), "bench.json")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"tmcheck", []string{"-n", "3", "-seed", "1"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-stripes", "1"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-stripes", "4", "-mech", "retry-orig", "-engine", "eager"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-unbatched"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-adaptive", "-resize-every", "5"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-coalesce", "2"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-coalesce", "8", "-adaptive"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-coalesce", "8", "-max-delay", "2ms"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-ext"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-ext", "-coalesce", "2"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-ext", "-adaptive"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-zipf", "1.2"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-read-mostly"}, "OK: every engine x mechanism pair matched"},
		{"tmcheck", []string{"-n", "2", "-seed", "1", "-phases", "6:counters,6:readmostly,4:map"}, "OK: every engine x mechanism pair matched"},
		{"tmbench", []string{"-quick", "-threads", "1,2", "-workloads", "buffer,parsec/x264", "-out", benchOut}, "retry-orig sweep"},
		{"tmbench", []string{"-quick", "-threads", "1,2", "-workloads", "buffer", "-mechs", "retry,await", "-experiments", "adaptive", "-no-baseline", "-out", benchOut}, "adaptive sweep"},
		{"tmbench", []string{"-quick", "-threads", "1", "-workloads", "buffer", "-mechs", "retry", "-experiments", "coalesce", "-no-baseline", "-out", benchOut}, "coalesce sweep"},
		{"tmbench", []string{"-quick", "-threads", "1", "-workloads", "buffer", "-mechs", "retry", "-experiments", "latency", "-max-delay", "10ms", "-no-baseline", "-diff", "", "-out", benchOut}, "latency verdict: HOLDS"},
		{"tmcheck", []string{"-n", "1", "-seed", "2", "-inject"}, "OK: all injected violations caught"},
		{"tmstress", []string{"-engine", "hybrid", "-mech", "retry", "-threads", "4", "-seconds", "0.3", "-cap", "2"}, "OK"},
		{"boundedbuffer", []string{"-quick", "-engine", "eager", "-ops", "2048", "-trials", "1"}, "bounded buffer performance"},
		{"parsecbench", []string{"-quick", "-engine", "lazy", "-trials", "1", "-bench", "dedup"}, "dedup"},
		{"loctable", nil, "bodytrack"},
		{"tmlint", []string{"./..."}, "tmlint: ok"},
		{"tmlint", []string{"-tests", "./..."}, "tmlint: ok"},
		{"tmlint", []string{"-list"}, "lockorder"},
		{"tmlint", []string{"-list"}, "bumporder"},
		{"tmlint", []string{"-analyzers", "monoclock,padcheck", "./internal/core/"}, "tmlint: ok"},
		{"tmlint", []string{"-analyzers", "bumporder,commitstamp,extrecheck", "./internal/stm/...", "./internal/hybrid/", "./internal/htm/"}, "tmlint: ok"},
		{"tmlint", []string{"-json", "./internal/locktable/"}, `"ok": true`},
	}
	for _, c := range cases {
		name := c.name + strings.Join(c.args, "_")
		t.Run(name, func(t *testing.T) {
			out := runSmoke(t, c.name, c.args...)
			if !strings.Contains(out, c.want) {
				t.Errorf("%s output lacks %q:\n%s", c.name, c.want, out)
			}
		})
	}
}

// TestSmokeTmcheckRecordReplay pins the capture→replay workflow end to
// end through real files: record a few scenarios, replay the directory,
// and replay again with a knob override merged over the stamp.
func TestSmokeTmcheckRecordReplay(t *testing.T) {
	dir := t.TempDir()
	out := runSmoke(t, "tmcheck", "-n", "2", "-seed", "3", "-engine", "eager", "-coalesce", "2", "-record", dir)
	if !strings.Contains(out, "OK: every engine x mechanism pair matched") {
		t.Fatalf("record run did not pass:\n%s", out)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(matches) != 2 {
		t.Fatalf("want 2 recorded traces, got %v (err %v)", matches, err)
	}
	out = runSmoke(t, "tmcheck", "-replay", filepath.Join(dir, "*.trace"))
	if !strings.Contains(out, "OK: every engine x mechanism pair matched") {
		t.Fatalf("replay did not pass:\n%s", out)
	}
	// Knob override merges over the stamped coalesce=2 and must still pass.
	out = runSmoke(t, "tmcheck", "-replay", filepath.Join(dir, "*.trace"), "-coalesce", "8", "-max-delay", "2ms")
	if !strings.Contains(out, "OK: every engine x mechanism pair matched") {
		t.Fatalf("replay with knob override did not pass:\n%s", out)
	}
}

// TestSmokeTmlintUsage pins the lint driver's CLI contract: no package
// patterns (or an unknown analyzer name) is a usage error, exit 2, with
// the usage text on stderr — so the CI gate can distinguish "misinvoked"
// from "found violations" (exit 1) from "clean" (exit 0).
func TestSmokeTmlintUsage(t *testing.T) {
	bin := filepath.Join(smokeBinaries(t), "tmlint")
	for _, args := range [][]string{
		{},
		{"-analyzers", "nosuch", "./..."},
	} {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			out, err := exec.Command(bin, args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("tmlint %v: want exit status 2, got err=%v\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "tmlint") {
				t.Errorf("tmlint %v: no diagnostic printed:\n%s", args, out)
			}
		})
	}
}

// TestSmokeTmlintJSON pins the machine-readable output contract: a
// firing fixture package must exit 1 and emit a JSON report whose
// violations carry the analyzer name, position, message, and the //tm:
// directives in effect at the reported line.
func TestSmokeTmlintJSON(t *testing.T) {
	bin := filepath.Join(smokeBinaries(t), "tmlint")
	fixture := filepath.Join("internal", "lint", "testdata", "src", "bumporder")
	cmd := exec.Command(bin, "-json", "-analyzers", "bumporder", fixture)
	cmd.Dir = repoRoot(t)
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("tmlint -json on firing fixture: want exit status 1, got err=%v\n%s", err, out)
	}
	var rep struct {
		OK         bool     `json:"ok"`
		Packages   int      `json:"packages"`
		Analyzers  []string `json:"analyzers"`
		Violations []struct {
			Analyzer   string   `json:"analyzer"`
			File       string   `json:"file"`
			Line       int      `json:"line"`
			Col        int      `json:"col"`
			Message    string   `json:"message"`
			Directives []string `json:"directives"`
		} `json:"violations"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("tmlint -json output is not valid JSON: %v\n%s", err, out)
	}
	if rep.OK || rep.Packages != 1 || len(rep.Violations) == 0 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	foundDirective := false
	for _, v := range rep.Violations {
		if v.Analyzer != "bumporder" {
			t.Errorf("violation names analyzer %q, want bumporder", v.Analyzer)
		}
		if !strings.Contains(v.File, "bumporder") || v.Line == 0 || v.Col == 0 || v.Message == "" {
			t.Errorf("violation missing position or message: %+v", v)
		}
		for _, d := range v.Directives {
			if d == "tm:republish" {
				foundDirective = true
			}
		}
	}
	if !foundDirective {
		t.Errorf("no violation carried the tm:republish directive context: %+v", rep.Violations)
	}
}

// TestSmokeTmcheckRejectsContradictoryFlags pins the CLI's mode-flag
// validation: contradictory combinations must exit 2 with a diagnostic,
// not silently run only one of the requested modes.
func TestSmokeTmcheckRejectsContradictoryFlags(t *testing.T) {
	bin := filepath.Join(smokeBinaries(t), "tmcheck")
	for _, args := range [][]string{
		{"-n", "1", "-stripes", "4", "-adaptive"},
		{"-n", "1", "-unbatched", "-coalesce", "2"},
		{"-n", "1", "-resize-every", "5"},
		{"-n", "1", "-coalesce", "-3"},
		{"-n", "1", "-max-delay", "2ms"},
		{"-n", "1", "-coalesce", "2", "-max-delay", "0s"},
		{"-n", "1", "-coalesce", "2", "-max-delay", "-1ms"},
		{"-zipf", "-0.5"},
		{"-phases", "10:bogus"},
		{"-phases", "0:counters"},
		{"-read-mostly", "-phases", "5:counters"},
		{"-parsec", "-zipf", "1.1"},
		{"-parsec", "-record", "/tmp/nope"},
		{"-replay", "x.trace", "-seed", "7"},
		{"-replay", "x.trace", "-n", "3"},
		{"-replay", "x.trace", "-threads", "4"},
		{"-replay", "x.trace", "-ops", "9"},
		{"-replay", "x.trace", "-inject"},
		{"-replay", "x.trace", "-parsec"},
		{"-replay", "x.trace", "-zipf", "1.1"},
		{"-replay", "x.trace", "-record", "/tmp/nope"},
		{"-replay", "no-such-file-anywhere.trace"},
	} {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			out, err := exec.Command(bin, args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("tmcheck %v: want exit status 2, got err=%v\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "tmcheck:") {
				t.Errorf("tmcheck %v: no diagnostic printed:\n%s", args, out)
			}
		})
	}
}
