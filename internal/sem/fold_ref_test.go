package sem

// The clone-per-step folds as they stood before folds stepped their own
// intermediate states in place (step with owned set) and pruned nondeterministic
// jumps before cloning (stepNondetPruned): every micro step goes through
// Step, which clones, and pruneInfeasible filters the cloned branches.
// Kept, under a ref* name, as the reference that
// TestFoldOwnedMatchesReference holds the production folds to. It also
// returns the events of the folded positions, which a search rebuilds
// by replaying PrefixIdx.

func refMacroStep(s *State, ti, limit int) (MacroResult, []Event) {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	var mr MacroResult
	var pidx []int32
	var evs []Event
	cur := s
	for {
		sr, stepEvs := StepEvents(cur, ti)
		mr.Stepped++
		if sr.Failure != nil || sr.Blocked {
			mr.StepResult = sr
			break
		}
		outs := sr.Outcomes
		var idxs []int32
		if len(outs) > 1 {
			// Only choice branches are pruned: a deterministic continuation
			// into a dead assume instead folds to its blocked endpoint, so
			// the block (and concheck's deadlock accounting) surfaces
			// exactly as in the per-statement search.
			outs, idxs = pruneInfeasible(sr.Outcomes, ti)
		}
		if len(outs) != 1 || !outs[0].SoleLive(ti) || mr.Stepped >= limit {
			if idxs == nil {
				idxs = make([]int32, len(outs))
				for i := range idxs {
					idxs[i] = int32(i)
				}
			}
			mr.StepResult = sr
			mr.Outcomes = outs
			mr.OutIdx = idxs
			break
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		pidx = append(pidx, idx0)
		evs = append(evs, stepEvs[idx0])
		cur = outs[0]
	}
	mr.PrefixIdx = pidx
	return mr, evs
}
