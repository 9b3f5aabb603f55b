package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	kiss "repro"
)

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.pl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const racySrc = `
var x;
func worker() { x = 1; }
func main() {
  x = 0;
  async worker();
  assert(x == 0);
}
`

func TestParseTarget(t *testing.T) {
	tgt, err := parseTarget("DEVICE_EXTENSION.stoppingFlag")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Record != "DEVICE_EXTENSION" || tgt.Field != "stoppingFlag" || tgt.Global != "" {
		t.Errorf("field target parsed wrong: %+v", tgt)
	}
	tgt, err = parseTarget("stopped")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Global != "stopped" {
		t.Errorf("global target parsed wrong: %+v", tgt)
	}
	if _, err := parseTarget(""); err == nil {
		t.Error("empty target accepted")
	}
}

func TestRunCheckCommand(t *testing.T) {
	path := writeTemp(t, racySrc)
	if err := runCheck([]string{"-max-ts", "0", path}); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestRunRaceCommand(t *testing.T) {
	path := writeTemp(t, racySrc)
	if err := runRace([]string{"-max-ts", "0", "-target", "x", path}); err != nil {
		t.Fatalf("race: %v", err)
	}
	if err := runRace([]string{path}); err == nil {
		t.Error("race without -target accepted")
	}
}

func TestRunTransformCommand(t *testing.T) {
	path := writeTemp(t, racySrc)
	if err := runTransform([]string{"-max-ts", "1", path}); err != nil {
		t.Fatalf("transform: %v", err)
	}
	if err := runTransform([]string{"-max-ts", "1", "-target", "x", path}); err != nil {
		t.Fatalf("transform -target: %v", err)
	}
}

func TestRunExploreAndPrint(t *testing.T) {
	path := writeTemp(t, racySrc)
	if err := runExplore([]string{"-context-bound", "2", path}); err != nil {
		t.Fatalf("explore: %v", err)
	}
	if err := runPrint([]string{path}); err != nil {
		t.Fatalf("print: %v", err)
	}
}

// TestObservabilityFlags: every checking command accepts the shared
// budget/observability flag set (-max-depth, -timeout, -progress).
func TestObservabilityFlags(t *testing.T) {
	path := writeTemp(t, racySrc)
	if err := runCheck([]string{"-max-ts", "1", "-max-depth", "50", "-timeout", "30s", "-progress", path}); err != nil {
		t.Fatalf("check with observability flags: %v", err)
	}
	if err := runRace([]string{"-target", "x", "-timeout", "30s", path}); err != nil {
		t.Fatalf("race -timeout: %v", err)
	}
	if err := runExplore([]string{"-context-bound", "2", "-progress", path}); err != nil {
		t.Fatalf("explore -progress: %v", err)
	}
}

// TestProfileFlags: check, race, and explore each leave a CPU and a heap
// profile where -cpuprofile and -memprofile point.
func TestProfileFlags(t *testing.T) {
	path := writeTemp(t, racySrc)
	dir := t.TempDir()
	for name, run := range map[string]func([]string) error{
		"check": runCheck, "race": runRace, "explore": runExplore,
	} {
		cpu, mem := filepath.Join(dir, name+".cpu"), filepath.Join(dir, name+".mem")
		args := []string{"-cpuprofile", cpu, "-memprofile", mem, path}
		if name == "race" {
			args = append([]string{"-target", "x"}, args...)
		}
		if err := run(args); err != nil {
			t.Fatalf("%s with profile flags: %v", name, err)
		}
		for _, p := range []string{cpu, mem} {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Errorf("%s: no profile at %s (%v)", name, filepath.Base(p), err)
			}
		}
	}
}

func TestMissingFileErrors(t *testing.T) {
	if err := runCheck([]string{"/nonexistent/prog.pl"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := runCheck([]string{}); err == nil {
		t.Error("no-argument invocation accepted")
	}
}

// TestTransformOutputIsValidInput: `kiss transform` output must itself be
// a parsable program (the printed intrinsics round trip).
func TestTransformOutputIsValidInput(t *testing.T) {
	prog, err := kiss.Parse(racySrc)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := kiss.NewConfig(kiss.WithMaxTS(1)).Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	src := seq.Source()
	if !strings.Contains(src, "__kiss_raise") {
		t.Errorf("transformed source missing instrumentation:\n%s", src)
	}
}

func TestRunCFGCommand(t *testing.T) {
	path := writeTemp(t, racySrc)
	if err := runCFG([]string{"-fn", "__kiss_main", "-max-ts", "1", path}); err != nil {
		t.Fatalf("cfg: %v", err)
	}
	if err := runCFG([]string{"-fn", "nosuch", path}); err == nil {
		t.Error("cfg of unknown function accepted")
	}
	if err := runCFG([]string{"-fn", "__kiss_check_r", "-target", "x", path}); err != nil {
		t.Fatalf("cfg -target: %v", err)
	}
}

func TestRunCheckWithCertifyAndEngines(t *testing.T) {
	path := writeTemp(t, racySrc)
	if err := runCheck([]string{"-max-ts", "1", "-bfs", "-certify", path}); err != nil {
		t.Fatalf("check -bfs -certify: %v", err)
	}
	if err := runCheck([]string{"-max-ts", "1", "-summaries", path}); err != nil {
		t.Fatalf("check -summaries: %v", err)
	}
	heapy := writeTemp(t, `record R { f; } func main() { var e; e = new R; e->f = 1; }`)
	if err := runCheck([]string{"-summaries", heapy}); err == nil {
		t.Error("summary engine accepted a heap-using program")
	}
}
