package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/utility"
	"roadside/internal/wire"
)

// The wire format. A problem travels exactly like a roadside-repro/v1
// artifact's instance section: the graph and flows embedded via their
// stable interchange codecs, the utility by name and threshold, plus the
// shop branches and candidate restriction. Responses carry the problem's
// digest and how the cache answered, so clients and load tests can audit
// coalescing externally.
//
// Request bodies are decoded by the wire package in one walk: each
// request type's wireField method decodes the members its key table
// selects, the graph and flows are captured as extents of the body and
// handed to their codecs by decodeProblem, and everything is accepted
// exactly as encoding/json would accept it into the tagged structs below.
// The structs keep their json tags for clients that build bodies with
// encoding/json.

// ProblemSpec is the problem section shared by every solve endpoint.
type ProblemSpec struct {
	Graph      json.RawMessage `json:"graph"`
	Flows      json.RawMessage `json:"flows"`
	Utility    string          `json:"utility"`
	UtilityD   float64         `json:"utility_d"`
	Shop       graph.NodeID    `json:"shop"`
	ExtraShops []graph.NodeID  `json:"extra_shops,omitempty"`
	Candidates []graph.NodeID  `json:"candidates,omitempty"`
}

// ProblemSpecOf captures p in wire form (the inverse of decodeProblem).
func ProblemSpecOf(p *core.Problem) (ProblemSpec, error) {
	var spec ProblemSpec
	if p == nil || p.Graph == nil || p.Flows == nil || p.Utility == nil {
		return spec, core.ErrNilField
	}
	g, err := p.Graph.AppendJSON(nil)
	if err != nil {
		return spec, fmt.Errorf("serve: encode graph: %w", err)
	}
	return ProblemSpec{
		Graph:      g,
		Flows:      p.Flows.AppendJSON(nil),
		Utility:    p.Utility.Name(),
		UtilityD:   p.Utility.Threshold(),
		Shop:       p.Shop,
		ExtraShops: append([]graph.NodeID(nil), p.ExtraShops...),
		Candidates: append([]graph.NodeID(nil), p.Candidates...),
	}, nil
}

// problemKeys are ProblemSpec's wire fields; each request's key table
// adds its own.
var problemKeys = []string{"graph", "flows", "utility", "utility_d", "shop", "extra_shops", "candidates"}

func requestKeys(own ...string) *wire.Keys {
	return wire.NewKeys(append(append([]string(nil), problemKeys...), own...)...)
}

// wireField decodes the ProblemSpec member name, one of problemKeys.
func (spec *ProblemSpec) wireField(d *wire.Decoder, name string) error {
	var err error
	switch name {
	case "graph":
		spec.Graph, err = d.Raw()
	case "flows":
		spec.Flows, err = d.Raw()
	case "utility":
		err = d.String(&spec.Utility)
	case "utility_d":
		err = d.Float(&spec.UtilityD)
	case "shop":
		err = wire.Int(d, &spec.Shop)
	case "extra_shops":
		err = wire.Ints(d, &spec.ExtraShops)
	default:
		err = wire.Ints(d, &spec.Candidates)
	}
	return err
}

// decodeBody walks a request body once, handing each member keys selects
// to field; any grammar or type error is bad_json.
func decodeBody(body []byte, keys *wire.Keys, field func(d *wire.Decoder, name string) error) *APIError {
	d := wire.NewDecoder(body)
	err := d.Object(keys, func(name string) error { return field(d, name) })
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	return nil
}

// PlaceRequest asks for an optimized placement.
type PlaceRequest struct {
	ProblemSpec
	K int `json:"k"`
	// Algo selects the solver: algorithm1, algorithm2 (default), combined,
	// or lazy.
	Algo string `json:"algo,omitempty"`
	// Digest addresses a cached engine by reference instead of shipping the
	// problem: a base digest from an earlier response (resolving to the
	// lineage's latest sequence) or an explicit "base@seq" pin. When set,
	// the problem fields are ignored and an unknown digest is not_found —
	// the server never rebuilds from a reference.
	Digest string `json:"digest,omitempty"`
	// TimeoutMS optionally lowers the per-request deadline below the
	// server's ceiling.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

var placeKeys = requestKeys("k", "algo", "digest", "timeout_ms")

func (req *PlaceRequest) wireField(d *wire.Decoder, name string) error {
	switch name {
	case "k":
		return wire.Int(d, &req.K)
	case "algo":
		return d.String(&req.Algo)
	case "digest":
		return d.String(&req.Digest)
	case "timeout_ms":
		return d.Float(&req.TimeoutMS)
	}
	return req.ProblemSpec.wireField(d, name)
}

// PlaceResponse is the solved placement.
type PlaceResponse struct {
	Digest    string         `json:"digest"`
	Cache     string         `json:"cache"` // hit | miss | coalesced
	Algo      string         `json:"algo"`
	K         int            `json:"k"`
	Nodes     []graph.NodeID `json:"nodes"`
	Attracted float64        `json:"attracted"`
	StepGains []float64      `json:"step_gains,omitempty"`
	StepKinds []string       `json:"step_kinds,omitempty"`
}

// EvaluateRequest scores a given placement. Digest addresses a cached
// engine by reference exactly as in PlaceRequest.
type EvaluateRequest struct {
	ProblemSpec
	Placement []graph.NodeID `json:"placement"`
	Digest    string         `json:"digest,omitempty"`
	TimeoutMS float64        `json:"timeout_ms,omitempty"`
}

var evaluateKeys = requestKeys("placement", "digest", "timeout_ms")

func (req *EvaluateRequest) wireField(d *wire.Decoder, name string) error {
	switch name {
	case "placement":
		return wire.Ints(d, &req.Placement)
	case "digest":
		return d.String(&req.Digest)
	case "timeout_ms":
		return d.Float(&req.TimeoutMS)
	}
	return req.ProblemSpec.wireField(d, name)
}

// FlowAttraction is one flow's share of an evaluated placement. Covered
// reports whether any placed RAP sits on the flow's path with a finite
// detour; Detour/Prob/Attracted are zero when it does not (never
// infinities — the wire format stays plain JSON).
type FlowAttraction struct {
	Flow      int     `json:"flow"`
	ID        string  `json:"id,omitempty"`
	Covered   bool    `json:"covered"`
	Detour    float64 `json:"detour,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	Attracted float64 `json:"attracted,omitempty"`
}

// EvaluateResponse is the objective plus its per-flow decomposition.
type EvaluateResponse struct {
	Digest    string           `json:"digest"`
	Cache     string           `json:"cache"`
	Objective float64          `json:"objective"`
	Flows     []FlowAttraction `json:"flows"`
}

// DetourRequest asks for the detour structure at a set of intersections.
// Digest addresses a cached engine by reference exactly as in PlaceRequest.
type DetourRequest struct {
	ProblemSpec
	Nodes     []graph.NodeID `json:"nodes"`
	Digest    string         `json:"digest,omitempty"`
	TimeoutMS float64        `json:"timeout_ms,omitempty"`
}

var detourKeys = requestKeys("nodes", "digest", "timeout_ms")

func (req *DetourRequest) wireField(d *wire.Decoder, name string) error {
	switch name {
	case "nodes":
		return wire.Ints(d, &req.Nodes)
	case "digest":
		return d.String(&req.Digest)
	case "timeout_ms":
		return d.Float(&req.TimeoutMS)
	}
	return req.ProblemSpec.wireField(d, name)
}

// NodeDetours is one queried intersection: which flows pass it and at what
// detour, plus the standalone objective of a single RAP there. Flows whose
// detour at the node is infinite (no shop reachable) are reported with
// Reachable false and no Detour value.
type NodeDetours struct {
	Node           graph.NodeID  `json:"node"`
	Visits         []DetourVisit `json:"visits"`
	StandaloneGain float64       `json:"standalone_gain"`
}

// DetourVisit is one (flow, detour) incidence at a queried node.
type DetourVisit struct {
	Flow      int     `json:"flow"`
	Reachable bool    `json:"reachable"`
	Detour    float64 `json:"detour,omitempty"`
}

// DetourResponse answers a detour query.
type DetourResponse struct {
	Digest string        `json:"digest"`
	Cache  string        `json:"cache"`
	Nodes  []NodeDetours `json:"nodes"`
}

// FlowUpdateSpec is one wire flow update. Op selects the mutation:
// "set_volume" (Flow + Volume), "remove" (Flow), or "add" (ID, Path,
// Volume, Alpha describing the new flow).
type FlowUpdateSpec struct {
	Op     string         `json:"op"`
	Flow   int            `json:"flow,omitempty"`
	Volume float64        `json:"volume,omitempty"`
	ID     string         `json:"id,omitempty"`
	Path   []graph.NodeID `json:"path,omitempty"`
	Alpha  float64        `json:"alpha,omitempty"`
}

var flowUpdateKeys = wire.NewKeys("op", "flow", "volume", "id", "path", "alpha")

func (spec *FlowUpdateSpec) wireDecode(d *wire.Decoder) error {
	return d.Object(flowUpdateKeys, func(name string) error {
		switch name {
		case "op":
			return d.String(&spec.Op)
		case "flow":
			return wire.Int(d, &spec.Flow)
		case "volume":
			return d.Float(&spec.Volume)
		case "id":
			return d.String(&spec.ID)
		case "path":
			return wire.Ints(d, &spec.Path)
		}
		return d.Float(&spec.Alpha)
	})
}

// UpdateRequest evolves a cached engine in place of a full rebuild. Digest
// is required: a base digest updates the lineage's latest sequence, an
// explicit "base@seq" is a compare-and-swap that fails with stale_digest
// when the lineage has already moved past seq. The batch is atomic —
// either every update applies and the lineage advances one sequence, or
// none do.
type UpdateRequest struct {
	Digest    string           `json:"digest"`
	Updates   []FlowUpdateSpec `json:"updates"`
	TimeoutMS float64          `json:"timeout_ms,omitempty"`
}

var updateKeys = wire.NewKeys("digest", "updates", "timeout_ms")

func (req *UpdateRequest) wireField(d *wire.Decoder, name string) error {
	switch name {
	case "digest":
		return d.String(&req.Digest)
	case "updates":
		return wire.Slice(d, &req.Updates, func(u *FlowUpdateSpec) error { return u.wireDecode(d) })
	}
	return d.Float(&req.TimeoutMS)
}

// UpdateResponse reports the lineage's new head. Digest is the derived
// "base@seq" reference that pins this exact revision in later place /
// evaluate / detour / update calls; Base addresses the latest revision
// whatever it is by then.
type UpdateResponse struct {
	Digest       string `json:"digest"`
	Base         string `json:"base"`
	Seq          int    `json:"seq"`
	Flows        int    `json:"flows"`         // flow count after the batch
	TouchedNodes int    `json:"touched_nodes"` // distinct intersections whose gains changed
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status       string  `json:"status"`
	UptimeS      float64 `json:"uptime_s"`
	CacheEntries int64   `json:"cache_entries"`
	CacheBytes   int64   `json:"cache_bytes"`
	Draining     bool    `json:"draining"`
}

// APIError is a machine-readable request failure: Code is stable and
// asserted by the e2e battery, Message is human context. RetryAfterS, when
// positive, becomes a Retry-After header on the response — the backpressure
// contract of the async job queue.
type APIError struct {
	Status      int    `json:"-"`
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"-"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// ErrorResponse is the wire shape of every non-2xx response.
type ErrorResponse struct {
	Err APIError `json:"error"`
}

func errorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// decodeProblem turns a wire problem into a validated core.Problem with
// budget k. Every failure maps to a stable error code; nothing here may
// panic on adversarial input (FuzzServeRequest enforces that through the
// endpoint decoders above it).
func decodeProblem(spec *ProblemSpec, k int) (*core.Problem, *APIError) {
	if len(spec.Graph) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadGraph, "missing graph")
	}
	if len(spec.Flows) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadFlows, "missing flows")
	}
	g, err := graph.DecodeJSON(spec.Graph)
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadGraph, "graph: %v", err)
	}
	flows, err := flow.DecodeJSON(spec.Flows)
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

// decodePlaceRequest parses and structurally validates a /v1/place body.
// With a digest reference the problem fields stay undecoded and p is nil;
// the handler resolves the engine from the cache instead.
func decodePlaceRequest(body []byte) (*PlaceRequest, *core.Problem, *APIError) {
	var req PlaceRequest
	if apiErr := decodeBody(body, placeKeys, req.wireField); apiErr != nil {
		return nil, nil, apiErr
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
	p, apiErr := decodeProblem(&req.ProblemSpec, req.K)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

// validNodes checks that every node exists in g, reporting failures under
// the given code. It runs at decode time for full-problem requests and
// after cache resolution for by-reference ones.
func validNodes(g *graph.Graph, nodes []graph.NodeID, code, what string) *APIError {
	for _, v := range nodes {
		if !g.ValidNode(v) {
			return errorf(http.StatusUnprocessableEntity, code,
				"%s node %d is not a node of the graph", what, v)
		}
	}
	return nil
}

// decodeEvaluateRequest parses and validates a /v1/evaluate body. The
// returned problem carries K=1: evaluation ignores the budget, and the
// digest excludes it, so the engine is shared with placement queries.
func decodeEvaluateRequest(body []byte) (*EvaluateRequest, *core.Problem, *APIError) {
	var req EvaluateRequest
	if apiErr := decodeBody(body, evaluateKeys, req.wireField); apiErr != nil {
		return nil, nil, apiErr
	}
	if req.Digest != "" {
		return &req, nil, nil
	}
	p, apiErr := decodeProblem(&req.ProblemSpec, 1)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if apiErr := validNodes(p.Graph, req.Placement, CodeBadPlacement, "placement"); apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

// decodeDetourRequest parses and validates a /v1/detour body.
func decodeDetourRequest(body []byte) (*DetourRequest, *core.Problem, *APIError) {
	var req DetourRequest
	if apiErr := decodeBody(body, detourKeys, req.wireField); apiErr != nil {
		return nil, nil, apiErr
	}
	if len(req.Nodes) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadNodes, "empty node set")
	}
	if req.Digest != "" {
		return &req, nil, nil
	}
	p, apiErr := decodeProblem(&req.ProblemSpec, 1)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if apiErr := validNodes(p.Graph, req.Nodes, CodeBadNodes, "queried"); apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

// decodeUpdateRequest parses a /v1/update body and lowers the wire ops
// onto core.FlowUpdate. Structural validation of each op (volume range,
// path is a walk of the engine's graph, flow index in range) happens
// inside ApplyCopy against the resolved engine; here only the op names and
// the added flows' self-contained shape are checked, so every failure
// beyond this point is bad_update with the lineage untouched.
func decodeUpdateRequest(body []byte) (*UpdateRequest, []core.FlowUpdate, *APIError) {
	var req UpdateRequest
	if apiErr := decodeBody(body, updateKeys, req.wireField); apiErr != nil {
		return nil, nil, apiErr
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

// solverFor looks a wire algo name up in the core solver table.
func solverFor(algo string) (core.Solver, *APIError) {
	s, ok := core.LookupSolver(algo)
	if !ok {
		return s, errorf(http.StatusUnprocessableEntity, CodeUnknownAlgo,
			"algo %q (want algorithm1, algorithm2, combined, or lazy)", algo)
	}
	return s, nil
}

// solve runs s on e. A lineage that has been updated carries a Warm cache
// current for its engine; the lazy solver seeded from it returns the
// bit-identical placement while skipping the full init scan (budgets share
// arenas, and the cached bounds do not depend on K).
func solve(s core.Solver, e *core.Engine, warm *core.Warm) (*core.Placement, error) {
	if s.Name == "lazy" {
		return core.GreedyLazyWarm(e, warm)
	}
	return s.Solve(e)
}

// writeJSON writes v as the response body. Encoding failures at this point
// cannot be reported to the client (the status line is gone), so they are
// swallowed after a best-effort write; response types contain no
// non-finite floats by construction.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:ignore errdrop headers are already sent; the client sees a truncated body either way
	_ = enc.Encode(v)
}

// writeError writes the uniform machine-readable error shape.
func writeError(w http.ResponseWriter, e *APIError) {
	if e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterS))
	}
	writeJSON(w, e.Status, ErrorResponse{Err: *e})
}
