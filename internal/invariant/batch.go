package invariant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"roadside/internal/core"
	"roadside/internal/serve"
)

func init() {
	register(Invariant{Name: "batch-identity",
		Doc:   "a /v1/batch response is item-for-item bit-identical to sequential /v1/place calls across all four algorithms at mixed budgets",
		Check: checkBatchIdentity})
}

// checkBatchIdentity sends one batch covering every algorithm at varied
// budgets to an in-process server, then replays each item as a sequential
// /v1/place against the same server, requiring Float64bits equality item
// for item. This pins the amortization claim of the batch endpoint: one
// engine resolve fanned across a worker pool changes nothing about any
// individual answer.
func checkBatchIdentity(inst *Instance) error {
	p := inst.Problem
	spec, err := serve.ProblemSpecOf(p)
	if err != nil {
		return fmt.Errorf("batch-identity: encode problem: %w", err)
	}

	// Every algorithm at a budget derived from the instance, plus the
	// instance's own K: mixed budgets across one shared engine.
	solvers := core.Solvers()
	items := make([]serve.BatchItem, 0, 2*len(solvers))
	for i, sv := range solvers {
		k := 1 + (int(uint64(inst.Seed))+i)%p.K
		items = append(items, serve.BatchItem{K: k, Algo: sv.Name})
		items = append(items, serve.BatchItem{K: p.K, Algo: sv.Name})
	}
	body, err := json.Marshal(serve.BatchRequest{ProblemSpec: spec, Items: items})
	if err != nil {
		return fmt.Errorf("batch-identity: encode request: %w", err)
	}

	s := serve.New(serve.Config{})
	post := func(path string, body []byte) (*recorder, error) {
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec, nil
	}

	rec, err := post("/v1/batch", body)
	if err != nil {
		return fmt.Errorf("batch-identity: %w", err)
	}
	if rec.status != http.StatusOK {
		return fmt.Errorf("batch-identity: status %d: %s", rec.status, rec.body.String())
	}
	var batch serve.BatchResponse
	if err := json.Unmarshal(rec.body.Bytes(), &batch); err != nil {
		return fmt.Errorf("batch-identity: decode response: %w", err)
	}
	if len(batch.Items) != len(items) || batch.Failed != 0 {
		return fmt.Errorf("batch-identity: %d items, %d failed; want %d items, 0 failed",
			len(batch.Items), batch.Failed, len(items))
	}

	for i, item := range items {
		got := batch.Items[i]
		if got.Index != i {
			return fmt.Errorf("batch-identity: item %d carries index %d", i, got.Index)
		}
		seqBody, err := json.Marshal(serve.PlaceRequest{ProblemSpec: spec, K: item.K, Algo: item.Algo})
		if err != nil {
			return fmt.Errorf("batch-identity: encode place %d: %w", i, err)
		}
		seqRec, err := post("/v1/place", seqBody)
		if err != nil {
			return fmt.Errorf("batch-identity: %w", err)
		}
		if seqRec.status != http.StatusOK {
			return fmt.Errorf("batch-identity: sequential place %d: status %d: %s",
				i, seqRec.status, seqRec.body.String())
		}
		var want serve.PlaceResponse
		if err := json.Unmarshal(seqRec.body.Bytes(), &want); err != nil {
			return fmt.Errorf("batch-identity: decode place %d: %w", i, err)
		}
		if batch.Digest != want.Digest {
			return fmt.Errorf("batch-identity: batch digest %q, place digest %q", batch.Digest, want.Digest)
		}
		batched := &core.Placement{Nodes: got.Nodes, StepGains: got.StepGains, Attracted: got.Attracted}
		sequential := &core.Placement{Nodes: want.Nodes, StepGains: want.StepGains, Attracted: want.Attracted}
		if err := placementsIdentical(sequential, batched); err != nil {
			return fmt.Errorf("batch-identity: item %d (%s k=%d) batch vs sequential: %w", i, item.Algo, item.K, err)
		}
	}
	return nil
}
