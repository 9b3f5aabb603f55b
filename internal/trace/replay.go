package trace

import (
	"repro/internal/sem"
)

// Schedule returns the trace's thread sequence with adjacent repeats
// collapsed: the order in which thread blocks execute, e.g. [0, 1, 0] for
// "main, then the forked thread, then main again". This is the scheduling
// skeleton of the paper's stack-discipline executions.
func (t *Trace) Schedule() []int {
	var out []int
	for _, s := range t.Steps {
		if len(out) == 0 || out[len(out)-1] != s.ThreadID {
			out = append(out, s.ThreadID)
		}
	}
	return out
}

// ReplayResult reports a guided replay.
type ReplayResult struct {
	// Certified is true when the original concurrent program reaches a
	// failure under the reconstructed schedule.
	Certified bool
	Failure   *sem.Failure
	States    int
}

// Replay drives the *original concurrent* program (compiled in c) along
// the given thread schedule: at any point only the current block's thread
// may step, or the schedule may advance to the next block's thread. If a
// failure is reachable under this discipline, the reconstructed trace's
// interleaving is certified — the strongest form of the paper's
// completeness statement ("the error trace leading to the assertion
// failure in P is easily constructed from the error trace in P'"), since
// it demonstrates a concrete failing execution that context-switches
// exactly where the reconstruction says it does.
//
// Thread ids follow creation order in both the reconstruction and the
// concurrent semantics (main is 0, forks count up), so the schedules
// align by construction. maxStates bounds the guided search (0 =
// unlimited).
func Replay(c *sem.Compiled, schedule []int, maxStates int) *ReplayResult {
	res := &ReplayResult{}
	if len(schedule) == 0 {
		return res
	}

	type node struct {
		st  *sem.State
		blk int // index into schedule
	}
	init := sem.NewState(c)
	stack := []node{{st: init, blk: 0}}
	// The same state may recur at different schedule positions; key on
	// both, as the searches key theirs: the 64-bit fingerprint mixed with
	// the block.
	visited := map[uint64]bool{}
	hasher := sem.NewFPHasher()

	threadIndex := func(s *sem.State, id int) int {
		for i, th := range s.Threads {
			if th.ID == id {
				return i
			}
		}
		return -1
	}

	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		// Two moves: step the current block's thread, or advance to the
		// next block (without stepping — the next iteration steps it).
		moves := []int{cur.blk}
		if cur.blk+1 < len(schedule) {
			moves = append(moves, cur.blk+1)
		}
		for _, blk := range moves {
			ti := threadIndex(cur.st, schedule[blk])
			if ti < 0 || cur.st.Threads[ti].Done() {
				continue
			}
			sr := sem.Step(cur.st, ti)
			if sr.Failure != nil {
				res.Certified = true
				res.Failure = sr.Failure
				return res
			}
			for _, out := range sr.Outcomes {
				key := sem.Mix64(hasher.Hash(out), uint64(blk))
				if visited[key] {
					continue
				}
				visited[key] = true
				res.States++
				if maxStates > 0 && res.States > maxStates {
					return res
				}
				stack = append(stack, node{st: out, blk: blk})
			}
		}
	}
	return res
}
