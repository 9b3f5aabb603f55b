package eval

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	kiss "repro"
)

// namesPrograms are two programs with different function sets: a
// function value's index in one program's name table names another
// function (or none) in the other's. Each fails printing a function
// value returned by a call, after forking a thread that takes one as an
// argument, so the value reaches an error message, a return event, a ts
// argument and the fingerprints.
var namesPrograms = map[string]string{
	"beta": `
var g; var h;
func alpha(f) { h = f; }
func beta() { }
func pick() { return @beta; }
func main() { var f; async alpha(@beta); f = pick(); g = f + 1; }
`,
	"delta": `
var g; var h;
func gamma() { }
func epsilon(f) { h = f; }
func zeta() { }
func delta() { }
func pick() { return @delta; }
func main() { var f; async epsilon(@delta); f = pick(); g = f + 1; }
`,
}

// namesReport renders what a check of one program prints and counts:
// the result line, every sequential event, and the concurrent trace.
func namesReport(t *testing.T, src string, searchWorkers int) string {
	prog, err := kiss.Parse(src)
	if err != nil {
		t.Error(err)
		return ""
	}
	res, err := (&kiss.Config{MaxTS: 1, SearchWorkers: searchWorkers}).Check(prog)
	if err != nil {
		t.Error(err)
		return ""
	}
	var b strings.Builder
	b.WriteString(res.String() + "\n")
	for _, ev := range res.SeqEvents {
		b.WriteString(ev.String() + "\n")
	}
	if res.Trace != nil {
		b.WriteString(res.Trace.Format())
	}
	return b.String()
}

// TestConcurrentProgramsKeepTheirNames checks the two programs
// concurrently, as the corpus pool does (workers pulling jobs off a
// shared counter), at search workers 0 and 2: every check must print
// and count exactly what it does alone, naming its own function values
// through its own program's table.
func TestConcurrentProgramsKeepTheirNames(t *testing.T) {
	type job struct{ name, src string }
	var jobs []job
	for round := 0; round < 4; round++ {
		for _, name := range []string{"beta", "delta"} {
			jobs = append(jobs, job{name, namesPrograms[name]})
		}
	}
	for _, sw := range []int{0, 2} {
		want := map[string]string{}
		for name, src := range namesPrograms {
			want[name] = namesReport(t, src, sw)
			// The KISS translation prefixes every function name.
			if !strings.Contains(want[name], "non-integers @__kiss_"+name+", 1") ||
				!strings.Contains(want[name], "return @__kiss_"+name) {
				t.Fatalf("%s alone does not print its function value:\n%s", name, want[name])
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					j := jobs[i]
					if got := namesReport(t, j.src, sw); got != want[j.name] {
						t.Errorf("search workers %d: %s checked concurrently reports\n%s\nwant\n%s", sw, j.name, got, want[j.name])
					}
				}
			}()
		}
		wg.Wait()
	}
}
