package serve

import (
	"encoding/json"
	"net/http"
	"strings"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// The encoding/json request decoders below are the wire format's
// reference implementation, kept as the differential oracle of the
// one-walk decoders in codec.go, batch.go, jobs.go and router.go
// (FuzzWireDecode): for every body both must answer the same status and
// error code, and on success the same decoded fields and problem digest.
// Adding a wire field means adding it to the request's wireField dispatch
// and to the struct the oracle unmarshals.

type oracleGraph struct {
	Nodes []geo.Point `json:"nodes"`
	Edges []struct {
		From   graph.NodeID `json:"from"`
		To     graph.NodeID `json:"to"`
		Weight float64      `json:"weight"`
	} `json:"edges"`
}

func oracleReadGraph(data []byte) (*graph.Graph, error) {
	var jg oracleGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(len(jg.Nodes), len(jg.Edges))
	for _, p := range jg.Nodes {
		b.AddNode(p)
	}
	for _, e := range jg.Edges {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

func oracleReadFlows(data []byte) (*flow.Set, error) {
	var in []struct {
		ID     string         `json:"id"`
		Path   []graph.NodeID `json:"path"`
		Volume float64        `json:"volume"`
		Alpha  float64        `json:"alpha"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	flows := make([]flow.Flow, 0, len(in))
	for _, jf := range in {
		f, err := flow.New(jf.ID, jf.Path, jf.Volume, jf.Alpha)
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
	return flow.NewSet(flows)
}

func oracleDecodeProblem(spec *ProblemSpec, k int) (*core.Problem, *APIError) {
	if len(spec.Graph) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadGraph, "missing graph")
	}
	if len(spec.Flows) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadFlows, "missing flows")
	}
	g, err := oracleReadGraph(spec.Graph)
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadGraph, "graph: %v", err)
	}
	flows, err := oracleReadFlows(spec.Flows)
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadFlows, "flows: %v", err)
	}
	// Engine preprocessing walks every flow path, so paths must be real
	// walks of this graph before they get near the arenas.
	if err := flows.ValidateAll(g); err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadFlows, "flows: %v", err)
	}
	u, err := utility.ByName(spec.Utility, spec.UtilityD)
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeUnknownUtility,
			"utility %q (D=%g): %v", spec.Utility, spec.UtilityD, err)
	}
	p := &core.Problem{
		Graph:      g,
		Shop:       spec.Shop,
		ExtraShops: append([]graph.NodeID(nil), spec.ExtraShops...),
		Flows:      flows,
		Utility:    u,
		K:          k,
		Candidates: append([]graph.NodeID(nil), spec.Candidates...),
	}
	if err := p.Validate(); err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadProblem, "%v", err)
	}
	return p, nil
}

func oracleDecodePlaceRequest(body []byte) (*PlaceRequest, *core.Problem, *APIError) {
	var req PlaceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if req.K < 1 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadBudget, "k=%d, need k >= 1", req.K)
	}
	if req.Algo == "" {
		req.Algo = "algorithm2"
	}
	if _, apiErr := solverFor(req.Algo); apiErr != nil {
		return nil, nil, apiErr
	}
	if req.Digest != "" {
		return &req, nil, nil
	}
	p, apiErr := oracleDecodeProblem(&req.ProblemSpec, req.K)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

func oracleDecodeEvaluateRequest(body []byte) (*EvaluateRequest, *core.Problem, *APIError) {
	var req EvaluateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if req.Digest != "" {
		return &req, nil, nil
	}
	p, apiErr := oracleDecodeProblem(&req.ProblemSpec, 1)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if apiErr := validNodes(p.Graph, req.Placement, CodeBadPlacement, "placement"); apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

func oracleDecodeDetourRequest(body []byte) (*DetourRequest, *core.Problem, *APIError) {
	var req DetourRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if len(req.Nodes) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadNodes, "empty node set")
	}
	if req.Digest != "" {
		return &req, nil, nil
	}
	p, apiErr := oracleDecodeProblem(&req.ProblemSpec, 1)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if apiErr := validNodes(p.Graph, req.Nodes, CodeBadNodes, "queried"); apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

func oracleDecodeUpdateRequest(body []byte) (*UpdateRequest, []core.FlowUpdate, *APIError) {
	var req UpdateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if req.Digest == "" {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate,
			"missing digest: updates address a cached engine by reference")
	}
	if len(req.Updates) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate, "empty update batch")
	}
	ops := make([]core.FlowUpdate, len(req.Updates))
	for i, spec := range req.Updates {
		switch spec.Op {
		case "set_volume":
			ops[i] = core.FlowUpdate{Op: core.OpSetVolume, Flow: spec.Flow, Volume: spec.Volume}
		case "remove":
			ops[i] = core.FlowUpdate{Op: core.OpRemoveFlow, Flow: spec.Flow}
		case "add":
			f, err := flow.New(spec.ID, spec.Path, spec.Volume, spec.Alpha)
			if err != nil {
				return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate,
					"update %d: add: %v", i, err)
			}
			ops[i] = core.FlowUpdate{Op: core.OpAddFlow, Add: f}
		default:
			return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate,
				"update %d: op %q (want set_volume, remove, or add)", i, spec.Op)
		}
	}
	return &req, ops, nil
}

func oracleDecodeBatchRequest(body []byte, maxItems int) (*BatchRequest, *core.Problem, *APIError) {
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if len(req.Items) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadBatch, "empty item list")
	}
	if len(req.Items) > maxItems {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadBatch,
			"%d items exceeds the per-batch cap of %d", len(req.Items), maxItems)
	}
	if req.Digest != "" {
		return &req, nil, nil
	}
	p, apiErr := oracleDecodeProblem(&req.ProblemSpec, 1)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

func oracleDecodeJobRequest(body []byte) (*JobRequest, *APIError) {
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if req.Kind == "" {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadJob,
			"missing kind (want one of: %s)", strings.Join(jobKindNames(), ", "))
	}
	if _, ok := jobKinds[req.Kind]; !ok {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadJob,
			"unknown kind %q (want one of: %s)", req.Kind, strings.Join(jobKindNames(), ", "))
	}
	if len(req.Request) == 0 || string(req.Request) == "null" {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadJob, "missing request body for kind %q", req.Kind)
	}
	return &req, nil
}

type oracleRouteProbe struct {
	Digest  string          `json:"digest"`
	Graph   json.RawMessage `json:"graph"`
	Request json.RawMessage `json:"request"`
	ProblemSpec
}

// oracleRoutingKey follows a job envelope one level, as workers read it: a
// body whose inner request is itself an envelope is its own key.
func oracleRoutingKey(body []byte) string {
	var probe oracleRouteProbe
	err := json.Unmarshal(body, &probe)
	if err == nil && probe.envelope() {
		var inner oracleRouteProbe
		if err = json.Unmarshal(probe.Request, &inner); err == nil && inner.envelope() {
			return string(body)
		}
		return oracleProblemKey(probe.Request, &inner, err)
	}
	return oracleProblemKey(body, &probe, err)
}

func (probe *oracleRouteProbe) envelope() bool {
	return probe.Digest == "" && probe.Graph == nil && len(probe.Request) > 0
}

// oracleProblemKey is the routing key of a body that is not a job
// envelope, given the body's probe and its unmarshal error.
func oracleProblemKey(body []byte, probe *oracleRouteProbe, err error) string {
	if err == nil {
		if probe.Digest != "" {
			if base, _, err := core.SplitDigest(probe.Digest); err == nil {
				return base
			}
			return probe.Digest
		}
		if probe.Graph != nil {
			probe.ProblemSpec.Graph = probe.Graph
			if p, apiErr := oracleDecodeProblem(&probe.ProblemSpec, 1); apiErr == nil {
				if digest, err := core.ProblemDigest(p); err == nil {
					return digest
				}
			}
		}
	}
	return string(body)
}
