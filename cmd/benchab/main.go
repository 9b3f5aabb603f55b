// Command benchab runs the end-to-end benchmark (BENCHMARK.json) as an
// A/B comparison of two revisions and summarizes it.
//
//	go run ./cmd/benchab -base HEAD~1 -head HEAD -pairs 10 -seed 1 -o ab.jsonl
//	go run ./cmd/benchab -summary ab.jsonl
//
// Each revision is extracted with `git archive` into a directory of its
// own under the system temp directory, and `bash bench/run.sh` runs
// there, so both sides build from committed files only. For every
// workload of BENCHMARK.json, pair i runs both revisions on seed+i for
// the file's run_seconds, alternating which goes first. The -o file must
// not exist yet; every run's JSON result is appended to it as one line
// as soon as it finishes. The summary (per metric: each side's median
// and quartiles, the ratio of medians, and the pairs the head wins) is
// printed at the end, and -summary reprints it from such a file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// runResult is the last stdout line of one bench run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// record is one line of the artifact.
type record struct {
	Workload string          `json:"workload"`
	Pair     int             `json:"pair"`
	Seed     int64           `json:"seed"`
	Arm      string          `json:"arm"` // "base" or "head"
	Rev      string          `json:"rev"`
	First    bool            `json:"first"` // ran first in its pair
	Result   json.RawMessage `json:"result"`
}

func main() {
	base := flag.String("base", "HEAD~1", "base revision")
	head := flag.String("head", "HEAD", "head revision (the change)")
	pairs := flag.Int("pairs", 10, "alternating pairs per workload")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair i runs seed+i")
	out := flag.String("o", "", "artifact to create: one JSON line per run (required unless -summary)")
	summary := flag.String("summary", "", "only print the summary of an existing artifact")
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *summary != "" {
		recs, err := readRecords(*summary)
		if err != nil {
			fatal(err)
		}
		printSummary(os.Stdout, spec, recs)
		return
	}
	if *out == "" {
		fatal(fmt.Errorf("-o is required"))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q: every run covers all workloads of BENCHMARK.json", flag.Args()))
	}
	if spec.RunSeconds <= 0 {
		fatal(fmt.Errorf("BENCHMARK.json has no run_seconds"))
	}

	if err := compare(spec, *base, *head, *out, *pairs, *seed); err != nil {
		fatal(err)
	}
}

// compare extracts both revisions, runs the pairs, writes the artifact
// and prints the summary.
func compare(spec *benchSpec, base, head, out string, pairs int, seed int64) error {
	// Create the artifact first, so an existing one is never overwritten
	// and a bad path fails before any run.
	f, err := os.OpenFile(out, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	tmp, err := os.MkdirTemp("", "bench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	revs, dirs := map[string]string{}, map[string]string{}
	for arm, rev := range map[string]string{"base": base, "head": head} {
		if revs[arm], err = gitOutput("rev-parse", rev); err != nil {
			return fmt.Errorf("resolving %s: %w", rev, err)
		}
		dirs[arm] = filepath.Join(tmp, arm)
		if err := extract(revs[arm], dirs[arm]); err != nil {
			return err
		}
	}

	var recs []record
	for _, wl := range spec.Workloads {
		w := wl.Name
		for i := 0; i < pairs; i++ {
			order := []string{"base", "head"}
			if i%2 == 1 {
				order = []string{"head", "base"}
			}
			for k, arm := range order {
				s := seed + int64(i)
				fmt.Fprintf(os.Stderr, "benchab: %s pair %d/%d seed %d %s\n", w, i+1, pairs, s, arm)
				res, err := runBench(dirs[arm], w, s, spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", arm, w, s, err)
				}
				r := record{Workload: w, Pair: i, Seed: s, Arm: arm, Rev: revs[arm], First: k == 0, Result: res}
				line, _ := json.Marshal(r)
				if _, err := f.Write(append(line, '\n')); err != nil {
					return err
				}
				recs = append(recs, r)
			}
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	printSummary(os.Stdout, spec, recs)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchab:", err)
	os.Exit(1)
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	return &s, json.Unmarshal(data, &s)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err
}

// extract writes the tree of rev into dir with git archive.
func extract(rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	untar.Stderr, archive.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return err
	}
	return untar.Wait()
}

// runBench runs one benchmark in dir and returns its JSON result line.
func runBench(dir, workload string, seed int64, seconds float64) (json.RawMessage, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = io.Discard
	// A run with a wrong verdict exits 1 after printing its result, which
	// is kept: the summary counts it.
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := []byte(lines[len(lines)-1])
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return last, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// (linear interpolation between order statistics).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// printSummary prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the ratio of medians and the pairs the head
// wins, then how many runs were correct and how many checks failed.
func printSummary(w io.Writer, spec *benchSpec, recs []record) {
	type side struct{ base, head map[int]runResult }
	byWorkload := map[string]*side{}
	var order []string
	for _, r := range recs {
		var res runResult
		if err := json.Unmarshal(r.Result, &res); err != nil {
			continue
		}
		s := byWorkload[r.Workload]
		if s == nil {
			s = &side{map[int]runResult{}, map[int]runResult{}}
			byWorkload[r.Workload] = s
			order = append(order, r.Workload)
		}
		if r.Arm == "base" {
			s.base[r.Pair] = res
		} else {
			s.head[r.Pair] = res
		}
	}
	fmt.Fprintln(w, "| workload | metric | base median (q1–q3) | head median (q1–q3) | head / base | head wins |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var notes []string
	for _, wl := range order {
		s := byWorkload[wl]
		var pairs []int
		for p := range s.base {
			if _, ok := s.head[p]; ok {
				pairs = append(pairs, p)
			}
		}
		sort.Ints(pairs)
		for _, m := range spec.EndToEnd {
			var bs, hs []float64
			wins := 0
			for _, p := range pairs {
				b, h := s.base[p].Metrics[m.Name].Value, s.head[p].Metrics[m.Name].Value
				bs, hs = append(bs, b), append(hs, h)
				if (m.Better == "lower" && h < b) || (m.Better == "higher" && h > b) {
					wins++
				}
			}
			bq1, bmed, bq3 := quartiles(bs)
			hq1, hmed, hq3 := quartiles(hs)
			ratio := 0.0
			if bmed != 0 {
				ratio = hmed / bmed
			}
			fmt.Fprintf(w, "| `%s` | `%s` (%s) | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %.3f | %d/%d |\n",
				wl, m.Name, m.Unit, bmed, bq1, bq3, hmed, hq1, hq3, ratio, wins, len(pairs))
		}
		for arm, runs := range map[string]map[int]runResult{"base": s.base, "head": s.head} {
			correct, failed := 0, 0
			for _, r := range runs {
				if r.Correct {
					correct++
				}
				failed += r.Failed
			}
			notes = append(notes, fmt.Sprintf("%s %s: %d/%d runs correct, %d checks failed", wl, arm, correct, len(runs), failed))
		}
	}
	sort.Strings(notes)
	fmt.Fprintln(w)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
}
