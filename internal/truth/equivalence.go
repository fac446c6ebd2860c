package truth

// valueEquiv caches, per task, which value pairs are presentations of the
// same underlying answer (Similarity ≥ threshold). It depends only on the
// dataset, so it is built once per engine; "presentation of the current
// truth" is the pair lookup against the truth index.
type valueEquiv struct {
	// samePair[j] is a V×V matrix flattened row-major.
	samePair [][]bool
	// width[j] is V_j, the number of distinct values of task j.
	width []int
}

func (e *valueEquiv) same(j int, a, b int32) bool {
	return e.samePair[j][int(a)*e.width[j]+int(b)]
}

// valueEquivalence returns the engine's equivalence cache, building it
// on first use, or nil when the extension is disabled.
func (s *state) valueEquivalence() *valueEquiv {
	if !s.opt.SimilarityInDependence || s.opt.Similarity == nil {
		return nil
	}
	if s.equiv != nil {
		return s.equiv
	}
	tau := s.opt.similarityThreshold()
	e := &valueEquiv{
		samePair: make([][]bool, s.m),
		width:    make([]int, s.m),
	}
	for j := 0; j < s.m; j++ {
		values := s.ds.Values(j)
		v := len(values)
		e.width[j] = v
		e.samePair[j] = make([]bool, v*v)
		for a := 0; a < v; a++ {
			e.samePair[j][a*v+a] = true
			for b := a + 1; b < v; b++ {
				if s.opt.Similarity(values[a], values[b]) >= tau {
					e.samePair[j][a*v+b] = true
					e.samePair[j][b*v+a] = true
				}
			}
		}
	}
	s.equiv = e
	return e
}
