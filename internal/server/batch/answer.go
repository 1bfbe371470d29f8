package batch

import (
	"encoding/json"
	"fmt"
	"math"

	"ligra/internal/algo"
	"ligra/internal/server/engine"
)

// Answer is a query's result in the form the result cache holds it: the
// summary, the details already encoded as compact JSON, and the backend
// the details name, back to back in one string. A reply splices the
// details in as they are, so a cached answer costs its encoded bytes and
// not a map of boxed values. The zero Answer has no summary, details or
// backend.
type Answer struct {
	packed                 string
	summaryEnd, detailsEnd int
}

// Summary is the result's one-line summary.
func (a *Answer) Summary() string { return a.packed[:a.summaryEnd] }

// Details is the details object, nil when there are none. Non-finite
// floats, which JSON cannot hold (a partial PageRank reports an +Inf L1
// change), are encoded as the strings fmt prints for them.
func (a *Answer) Details() json.RawMessage {
	if a.detailsEnd == a.summaryEnd {
		return nil
	}
	return json.RawMessage(a.packed[a.summaryEnd:a.detailsEnd])
}

// Backend is the backend the details name, "" when they name none.
func (a *Answer) Backend() string { return a.packed[a.detailsEnd:] }

// Pack is the one encoding of a result for the cache, shared by the plain
// runner and the sweep's slots: its Value holds res as an *Answer and
// charges the answer's packed length. res's details are not used after.
func Pack(res algo.RunResult) engine.Value {
	backend, _ := res.Details["backend"].(string)
	var details []byte
	if len(res.Details) > 0 {
		for k, v := range res.Details {
			if f, ok := v.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
				res.Details[k] = fmt.Sprint(f)
			}
		}
		// The details are scalars and integer slices: an encoding error
		// cannot happen, and would leave the reply without details.
		details, _ = json.Marshal(res.Details)
	}
	a := &Answer{
		packed:     res.Summary + string(details) + backend,
		summaryEnd: len(res.Summary),
		detailsEnd: len(res.Summary) + len(details),
	}
	return engine.Value{Data: a, Bytes: int64(len(a.packed))}
}
