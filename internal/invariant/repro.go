package invariant

import (
	"encoding/json"
	"errors"
	"fmt"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// Schema identifies the repro artifact format. Bump the suffix on any
// incompatible change; Decode rejects unknown schemas so stale artifacts
// fail loudly instead of replaying the wrong instance.
const Schema = "roadside-repro/v1"

// ErrSchema reports a malformed or unsupported repro artifact.
var ErrSchema = errors.New("invariant: bad repro artifact")

// ErrReplayPassed reports a repro artifact whose invariant no longer fails —
// either the bug was fixed (delete the artifact after promoting it to a
// regression fixture) or the artifact does not reproduce deterministically.
var ErrReplayPassed = errors.New("invariant: repro artifact no longer fails")

// Repro is a self-contained, replayable failure artifact: the shrunk
// instance (graph, flows, and all problem knobs embedded via the stable
// graph/flow interchange codecs) plus the invariant that failed and the
// failure message observed. Shipped artifacts double as permanent regression
// tests via Replay.
type Repro struct {
	Schema    string `json:"schema"`
	Invariant string `json:"invariant"`
	// Name and Seed identify the generated instance the failure came from;
	// Seed alone regenerates the unshrunk original with the same binary.
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	Kind string `json:"kind"`
	// Failure is the error string observed when the invariant was captured.
	Failure string `json:"failure"`

	Utility    string          `json:"utility"`
	UtilityD   float64         `json:"utility_d"`
	K          int             `json:"k"`
	Shop       graph.NodeID    `json:"shop"`
	ExtraShops []graph.NodeID  `json:"extra_shops,omitempty"`
	Candidates []graph.NodeID  `json:"candidates,omitempty"`
	Graph      json.RawMessage `json:"graph"`
	Flows      json.RawMessage `json:"flows"`
}

// FromInstance captures a failing instance as a repro artifact.
func FromInstance(inst *Instance, invName string, failure error) (*Repro, error) {
	p := inst.Problem
	g, err := p.Graph.AppendJSON(nil)
	if err != nil {
		return nil, fmt.Errorf("invariant: capture graph: %w", err)
	}
	msg := ""
	if failure != nil {
		msg = failure.Error()
	}
	return &Repro{
		Schema:     Schema,
		Invariant:  invName,
		Name:       inst.Name,
		Seed:       inst.Seed,
		Kind:       inst.Kind,
		Failure:    msg,
		Utility:    p.Utility.Name(),
		UtilityD:   p.Utility.Threshold(),
		K:          p.K,
		Shop:       p.Shop,
		ExtraShops: append([]graph.NodeID(nil), p.ExtraShops...),
		Candidates: append([]graph.NodeID(nil), p.Candidates...),
		Graph:      g,
		Flows:      p.Flows.AppendJSON(nil),
	}, nil
}

// Encode serializes the artifact as indented JSON suitable for checking into
// testdata.
func (r *Repro) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("invariant: encode repro: %w", err)
	}
	return append(out, '\n'), nil
}

// Decode parses and structurally validates a repro artifact. Malformed input
// yields an error wrapping ErrSchema, never a panic.
func Decode(data []byte) (*Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchema, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrSchema, r.Schema, Schema)
	}
	if r.Invariant == "" {
		return nil, fmt.Errorf("%w: missing invariant name", ErrSchema)
	}
	if len(r.Graph) == 0 || len(r.Flows) == 0 {
		return nil, fmt.Errorf("%w: missing graph or flows", ErrSchema)
	}
	if _, err := r.Instance(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Instance reconstructs the embedded problem instance, re-validating it.
func (r *Repro) Instance() (*Instance, error) {
	g, err := graph.DecodeJSON(r.Graph)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchema, err)
	}
	flows, err := flow.DecodeJSON(r.Flows)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchema, err)
	}
	u, err := utility.ByName(r.Utility, r.UtilityD)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchema, err)
	}
	p := &core.Problem{
		Graph:      g,
		Shop:       r.Shop,
		ExtraShops: append([]graph.NodeID(nil), r.ExtraShops...),
		Flows:      flows,
		Utility:    u,
		K:          r.K,
		Candidates: append([]graph.NodeID(nil), r.Candidates...),
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: embedded problem: %v", ErrSchema, err)
	}
	return &Instance{Name: r.Name, Seed: r.Seed, Kind: r.Kind, Problem: p}, nil
}

// Replay decodes an artifact, resolves its invariant from the registry, and
// re-runs the check. It returns nil when the artifact still fails as
// captured (the regression is still guarded and still red — the expected
// state for a shipped artifact of a *deliberate* failure fixture, or a
// not-yet-fixed bug), ErrReplayPassed when the invariant now passes, and the
// resolution error when the invariant name is unknown.
func Replay(data []byte) error {
	r, err := Decode(data)
	if err != nil {
		return err
	}
	inv, ok := ByName(r.Invariant)
	if !ok {
		return fmt.Errorf("%w: unknown invariant %q", ErrSchema, r.Invariant)
	}
	return ReplayWith(r, inv)
}

// ReplayWith re-runs inv against the artifact's embedded instance,
// bypassing the registry (used for unregistered fixtures like SelfTest).
func ReplayWith(r *Repro, inv Invariant) error {
	inst, err := r.Instance()
	if err != nil {
		return err
	}
	if err := inv.Check(inst); err == nil {
		return fmt.Errorf("%w: %s on %s", ErrReplayPassed, inv.Name, r.Name)
	}
	return nil
}
