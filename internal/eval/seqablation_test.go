package eval

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	kiss "repro"
	"repro/internal/ast"
	"repro/internal/cbseq"
	"repro/internal/drivers"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/sema"
	"repro/internal/seqcheck"
)

// parseCore parses and lowers a source into the core form the cbseq
// transform consumes.
func parseCore(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		t.Fatalf("sema: %v", err)
	}
	lower.Program(p)
	return p
}

// The scenario metadata is ground truth for the ablation: every
// scenario's MinSwitches and KissFinds must match what the checkers
// actually report, or the study would grade arms against a wrong key.
func TestScenarioMetadataMatchesCheckers(t *testing.T) {
	t.Parallel()
	for _, sc := range drivers.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := kiss.Parse(sc.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			truth, err := (&kiss.Config{ContextBound: -1, MaxStates: 300000}).Explore(prog)
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			wantBug := sc.MinSwitches >= 0
			if got := truth.Verdict == kiss.Error; got != wantBug {
				t.Fatalf("oracle verdict %v, metadata says buggy=%v", truth.Verdict, wantBug)
			}

			kres, err := (&kiss.Config{MaxTS: 2, MaxStates: 300000}).Check(prog)
			if err != nil {
				t.Fatalf("kiss: %v", err)
			}
			if got := kres.Verdict == kiss.Error; got != sc.KissFinds {
				t.Fatalf("kiss verdict %v, metadata says KissFinds=%v", kres.Verdict, sc.KissFinds)
			}

			// CB(K) finds the bug iff K >= MinSwitches. Probe one bound
			// below the frontier and the frontier itself. The probe runs
			// the transform directly: Config.ContextSwitches treats 0 as
			// "use the default", so it cannot express a K=0 run.
			probe := func(k int) kiss.Verdict {
				out, err := cbseq.Transform(parseCore(t, sc.Source), cbseq.Options{ContextSwitches: k})
				if err != nil {
					t.Fatalf("cb(%d) transform: %v", k, err)
				}
				c, err := sem.Compile(out)
				if err != nil {
					t.Fatalf("cb(%d) compile: %v", k, err)
				}
				r := seqcheck.Check(c, seqcheck.Options{MaxStates: 2_000_000})
				switch r.Verdict {
				case seqcheck.Safe:
					return kiss.Safe
				case seqcheck.Error:
					return kiss.Error
				default:
					t.Fatalf("cb(%d): resource bound tripped", k)
					return kiss.ResourceBound
				}
			}
			if wantBug {
				if v := probe(sc.MinSwitches); v != kiss.Error {
					t.Fatalf("cb(%d) = %v, want Error at the frontier", sc.MinSwitches, v)
				}
				if sc.MinSwitches > 0 {
					if v := probe(sc.MinSwitches - 1); v != kiss.Safe {
						t.Fatalf("cb(%d) = %v, want Safe below the frontier", sc.MinSwitches-1, v)
					}
				}
			} else {
				if v := probe(2); v != kiss.Safe {
					t.Fatalf("cb(2) = %v, want Safe on a safe scenario", v)
				}
			}
		})
	}
}

// The scenarios-only study must come back sound and monotone, with the
// headline CB-only count covering the resumption scenarios KISS misses.
func TestRunSeqAblationScenarios(t *testing.T) {
	t.Parallel()
	rep, err := RunSeqAblation(SeqAblationOptions{Programs: -1, Bounds: []int{1, 3}})
	if err != nil {
		t.Fatalf("RunSeqAblation: %v", err)
	}
	if !rep.Sound || !rep.Monotone {
		t.Fatalf("sound=%v monotone=%v, violations: %v", rep.Sound, rep.Monotone, rep.Violations)
	}
	// resume-once, resume-twice, two-workers: truth-confirmed bugs KISS
	// misses, all within 3 switches.
	if rep.CBOnly < 3 {
		t.Fatalf("CBOnly = %d, want >= 3", rep.CBOnly)
	}
	if rep.KissErrors >= rep.CBErrors[1] {
		t.Fatalf("kiss errors %d should trail cb(3) errors %d", rep.KissErrors, rep.CBErrors[1])
	}

	out := FormatSeqAblation(rep)
	if !strings.Contains(out, "scenario:resume-once") || !strings.Contains(out, "CB-only") {
		t.Fatalf("format output missing expected rows:\n%s", out)
	}

	var buf bytes.Buffer
	if err := WriteSeqAblation(&buf, rep); err != nil {
		t.Fatalf("write: %v", err)
	}
	var back SeqAblationReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.CBOnly != rep.CBOnly || len(back.Rows) != len(rep.Rows) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rep)
	}
}

// The race-target corpus is outside the CB fragment; a CB-mode corpus
// run must say so per field, not abort or fake verdicts.
func TestCorpusUnderCBReportsUnsupported(t *testing.T) {
	t.Parallel()
	results, err := RunCorpus(Options{
		Sequentialization: kiss.SeqCB,
		ContextSwitches:   2,
		Drivers:           map[string]bool{"tracedrv": true},
	})
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if len(results) != 1 || len(results[0].Fields) == 0 {
		t.Fatalf("unexpected result shape: %+v", results)
	}
	dr := results[0]
	if dr.Unsupported != len(dr.Fields) {
		t.Fatalf("Unsupported = %d, want all %d fields", dr.Unsupported, len(dr.Fields))
	}
	for _, fr := range dr.Fields {
		if fr.Verdict != Unsupported || fr.Message == "" {
			t.Fatalf("field %s: verdict %v message %q", fr.Field, fr.Verdict, fr.Message)
		}
	}
	if out := FormatTable1(results); !strings.Contains(out, "outside the configured sequentialization") {
		t.Fatalf("Table 1 output hides unsupported fields:\n%s", out)
	}
}

// A small random population sweeps the differential property through the
// study path as well: sound and monotone over generated programs.
func TestRunSeqAblationRandom(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunSeqAblation(SeqAblationOptions{Programs: 8, Bounds: []int{2, 3}})
	if err != nil {
		t.Fatalf("RunSeqAblation: %v", err)
	}
	if !rep.Sound || !rep.Monotone {
		t.Fatalf("sound=%v monotone=%v, violations: %v", rep.Sound, rep.Monotone, rep.Violations)
	}
	if rep.Subjects != len(drivers.Scenarios())+8 {
		t.Fatalf("subjects = %d", rep.Subjects)
	}
}
