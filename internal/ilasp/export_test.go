package ilasp

// Vectorize builds the coverage signatures of a task's space at the
// given width, as Learn (strict false) or LearnIndependent (strict true)
// does, for the external tests. The signatures come back as an opaque
// value for reflect.DeepEqual.
func Vectorize(t *Task, width int, strict bool) (any, error) {
	return vectorizeTask(t, width, strict, true)
}

// VectorizeEveryPair is Vectorize over the space prepared without guard
// atoms, so the build evaluates every (candidate, example) pair.
func VectorizeEveryPair(t *Task, width int, strict bool) (any, error) {
	return vectorizeTask(t, width, strict, false)
}

func vectorizeTask(t *Task, width int, strict, guarded bool) (any, error) {
	ps, err := t.space()
	if err != nil {
		return nil, err
	}
	if !guarded {
		ps = prepare(ps.cands, false)
	}
	v, err := vectorize(&taskOracle{task: t, ps: ps}, ps, width, strict)
	if err != nil {
		return nil, err
	}
	return v, nil
}
