package sem

// The clone-per-step folds as they stood before folds stepped their own
// intermediate states in place (step with owned set) and pruned nondeterministic
// jumps before cloning (stepNondetPruned): every micro step goes through
// Step, which clones, and pruneInfeasible filters the cloned branches.
// Kept verbatim, under ref* names, as the reference that
// TestFoldOwnedMatchesReference holds the production folds to.

func refMacroStepMemo(s *State, ti, limit int, memo *FoldMemo) MacroResult {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	if memo == nil || !othersDone(s, ti) {
		// Memo entries are recorded and replayed only at states where every
		// other thread is done (sole-live folding), so the fold-stop
		// condition is invariant across base and replay states.
		return refMacroRun(s, ti, limit)
	}
	e, warm := memo.lookup(s, ti, limit)
	if e != nil {
		return memo.replay(s, ti, limit, e)
	}
	memo.misses.Add(1)
	if !warm {
		return refMacroRun(s, ti, limit)
	}
	rec := recorderPool.Get().(*foldRecorder)
	rec.reset(s)
	s.rec = rec
	mr := refMacroRun(s, ti, limit)
	// Clear the recorder from every state that escapes to the search.
	s.rec = nil
	for i := range mr.Outcomes {
		mr.Outcomes[i].State.rec = nil
	}
	if !rec.aborted && mr.Stepped >= memoMinStepped {
		memo.store(s, ti, rec, &mr)
	}
	recorderPool.Put(rec)
	return mr
}

func refMacroRun(s *State, ti, limit int) MacroResult {
	var mr MacroResult
	ps := prefixPool.Get().(*prefixScratch)
	evs, pidx := ps.ev[:0], ps.idx[:0]
	cur := s
	for {
		sr := Step(cur, ti)
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
		if len(outs) != 1 || !soleLive(outs[0].State, ti) || mr.Stepped >= limit {
			if idxs == nil {
				idxs = identityIdx(len(outs))
			}
			mr.StepResult = sr
			mr.Outcomes = outs
			mr.OutIdx = idxs
			// Limited only when the limit alone stopped the run: with one
			// live sole-live successor it would have kept folding.
			mr.Limited = len(outs) == 1 && soleLive(outs[0].State, ti)
			break
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		evs = append(evs, outs[0].Event)
		pidx = append(pidx, idx0)
		cur = outs[0].State
	}
	if len(evs) > 0 {
		mr.Prefix = make([]Event, len(evs))
		copy(mr.Prefix, evs)
		mr.PrefixIdx = make([]int32, len(pidx))
		copy(mr.PrefixIdx, pidx)
	}
	clear(evs) // drop Event string/state references held by the pooled buffer
	ps.ev, ps.idx = evs, pidx
	prefixPool.Put(ps)
	return mr
}
