package winmodel

import (
	"testing"

	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/sema"
)

// compileWith compiles the winmodel library together with a driver
// snippet.
func compileWith(t *testing.T, driver string) *sem.Compiled {
	t.Helper()
	p, err := parser.Parse(Source + driver)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(p, sema.Source); err != nil {
		t.Fatalf("sema: %v", err)
	}
	lower.Program(p)
	c, err := sem.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// explore runs all interleavings, returning the first failure and final
// global-store strings.
func explore(t *testing.T, c *sem.Compiled) *sem.Failure {
	t.Helper()
	stack := []*sem.State{sem.NewState(c)}
	seen := map[string]bool{}
	for steps := 0; len(stack) > 0; steps++ {
		if steps > 500000 {
			t.Fatal("state explosion in winmodel test")
		}
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ti := range s.Threads {
			if s.Threads[ti].Done() {
				continue
			}
			sr := sem.Step(s, ti)
			if sr.Failure != nil {
				return sr.Failure
			}
			for _, o := range sr.Outcomes {
				fp := o.FingerprintString()
				if !seen[fp] {
					seen[fp] = true
					stack = append(stack, o)
				}
			}
		}
	}
	return nil
}

func TestSpinLockMutualExclusion(t *testing.T) {
	c := compileWith(t, `
var lock;
var inCS;
func worker() {
  KeAcquireSpinLock(&lock);
  inCS = inCS + 1;
  assert(inCS == 1);
  inCS = inCS - 1;
  KeReleaseSpinLock(&lock);
}
func main() {
  lock = 0; inCS = 0;
  async worker();
  async worker();
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("mutual exclusion violated: %v", f)
	}
}

func TestEventSignaling(t *testing.T) {
	c := compileWith(t, `
var ev;
var data;
func producer() { data = 42; KeSetEvent(&ev); }
func consumer() { KeWaitForSingleObject(&ev); assert(data == 42); }
func main() {
  KeInitializeEvent(&ev);
  data = 0;
  async producer();
  async consumer();
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("event signaling broken: %v", f)
	}
}

func TestInterlockedIncrementAtomicity(t *testing.T) {
	c := compileWith(t, `
var count;
var done;
func worker() {
  var v;
  v = InterlockedIncrement(&count);
  done = done + 1;
}
func checker() {
  assume(done == 2);
  assert(count == 2);
}
func main() {
  count = 0; done = 0;
  async worker();
  async worker();
  async checker();
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("interlocked increment lost an update: %v", f)
	}
}

func TestInterlockedIncrementReturnsNewValue(t *testing.T) {
	c := compileWith(t, `
var count;
func main() {
  var v;
  count = 5;
  v = InterlockedIncrement(&count);
  assert(v == 6);
  v = InterlockedDecrement(&count);
  assert(v == 5);
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("interlocked return value wrong: %v", f)
	}
}

func TestInterlockedExchange(t *testing.T) {
	c := compileWith(t, `
var cell;
func main() {
  var old;
  cell = 3;
  old = InterlockedExchange(&cell, 9);
  assert(old == 3);
  assert(cell == 9);
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("exchange wrong: %v", f)
	}
}

func TestInterlockedCompareExchange(t *testing.T) {
	c := compileWith(t, `
var cell;
func main() {
  var old;
  cell = 3;
  old = InterlockedCompareExchange(&cell, 9, 4);
  assert(old == 3);
  assert(cell == 3);    // comparand mismatch: no store
  old = InterlockedCompareExchange(&cell, 9, 3);
  assert(old == 3);
  assert(cell == 9);    // comparand match: stored
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("compare-exchange wrong: %v", f)
	}
}

func TestRemoveLockDrain(t *testing.T) {
	c := compileWith(t, `
var count;
var removing;
var inDriver;
func worker() {
  var st;
  st = IoAcquireRemoveLock(&count, &removing);
  if (st == 0) {
    inDriver = 1;
    inDriver = 0;
    IoReleaseRemoveLock(&count, &removing);
  }
}
func remover() {
  IoReleaseRemoveLockAndWait(&count, &removing);
  assert(inDriver == 0);
}
func main() {
  count = 1; removing = 0; inDriver = 0;
  async worker();
  async remover();
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("remove-lock drain violated: %v", f)
	}
}

func TestCompareExchangeSpinLockIdiom(t *testing.T) {
	// Drivers sometimes build locks from InterlockedCompareExchange; the
	// model must make that correct.
	c := compileWith(t, `
var word;
var cs;
func worker() {
  var got;
  got = 1;
  iter {
    assume(got != 0);
    got = InterlockedCompareExchange(&word, 1, 0);
  }
  assume(got == 0);
  cs = cs + 1;
  assert(cs == 1);
  cs = cs - 1;
  word = 0;
}
func main() {
  word = 0; cs = 0;
  async worker();
  async worker();
}
`)
	if f := explore(t, c); f != nil {
		t.Fatalf("CAS lock idiom violated: %v", f)
	}
}
