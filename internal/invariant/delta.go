package invariant

import (
	"fmt"
	"math"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/stats"
)

func init() {
	register(Invariant{Name: "delta-identity",
		Doc:   "applying flow updates (volume drift, add, remove) in place or by copy, plus a warm-started re-solve, is bit-identical to rebuilding the engine from scratch",
		Check: checkDeltaIdentity})
}

// deltaOps derives a deterministic update batch from the instance seed.
// Every random draw goes through the instance's seed stream and flow
// indices are taken modulo the *current* flow count, so the same seed
// yields a valid batch on any shrunk version of the instance — the
// shrinker can remove flows without invalidating the scenario.
func deltaOps(inst *Instance) ([]core.FlowUpdate, error) {
	r := stats.NewRand(inst.Seed, 41)
	p := inst.Problem
	g := p.Graph
	n := g.NumNodes()
	nFlows := p.Flows.Len()
	count := 3 + r.Intn(5)
	ops := make([]core.FlowUpdate, 0, count)
	adds := 0
	for i := 0; i < count; i++ {
		roll := r.Float64()
		switch {
		case roll < 0.55:
			ops = append(ops, core.FlowUpdate{
				Op:     core.OpSetVolume,
				Flow:   r.Intn(nFlows),
				Volume: float64(1 + r.Intn(500)),
			})
		case roll < 0.8 && nFlows > 1:
			ops = append(ops, core.FlowUpdate{Op: core.OpRemoveFlow, Flow: r.Intn(nFlows)})
			nFlows--
		default:
			// Add a shortest-path flow between two random distinct nodes;
			// fall back to a volume drift when the draw yields no usable
			// path so the batch length stays seed-determined.
			src, dst := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			path, _, err := g.ShortestPath(src, dst)
			if src == dst || err != nil {
				ops = append(ops, core.FlowUpdate{
					Op:     core.OpSetVolume,
					Flow:   r.Intn(nFlows),
					Volume: float64(1 + r.Intn(500)),
				})
				continue
			}
			f, err := flow.New(fmt.Sprintf("delta-add-%d", adds), path,
				float64(1+r.Intn(200)), 0.05+0.9*r.Float64())
			if err != nil {
				return nil, fmt.Errorf("delta-identity: add flow: %w", err)
			}
			adds++
			ops = append(ops, core.FlowUpdate{Op: core.OpAddFlow, Add: f})
			nFlows++
		}
	}
	return ops, nil
}

// checkDeltaIdentity pins the delta layer's core contract: an engine that
// absorbed a batch of flow updates — in place via Apply or copy-on-write
// via ApplyCopy — is indistinguishable from an engine built fresh from the
// updated problem, down to the last bit of every arena (Fingerprint),
// every solver placement, and every evaluated prefix. It also pins the
// warm-start path: a Warm cache refreshed with the update's touched set
// seeds GreedyLazyWarm to the exact placement of a cold GreedyLazy. Odd
// seeds build under a deliberately tiny shard budget so remove-triggered
// resharding and add-triggered shard growth are exercised, not just the
// single-shard fast paths.
func checkDeltaIdentity(inst *Instance) error {
	p := inst.Problem
	build := func(pr *core.Problem) (*core.Engine, error) {
		if uint64(inst.Seed)%2 == 1 {
			return core.NewEngineMaxShard(pr, 2, pr.Graph.NumNodes()+1)
		}
		return core.NewEngine(pr)
	}

	ops, err := deltaOps(inst)
	if err != nil {
		return err
	}

	// Oracle: apply the same batch at the problem level and rebuild.
	updated, err := core.ApplyToProblem(p, ops)
	if err != nil {
		return fmt.Errorf("delta-identity: oracle update: %w", err)
	}
	fresh, err := build(updated)
	if err != nil {
		return fmt.Errorf("delta-identity: fresh engine: %w", err)
	}

	// A private base engine (inst.Engine() is shared across checks and
	// Apply mutates; it must never see this batch).
	base, err := build(p)
	if err != nil {
		return fmt.Errorf("delta-identity: base engine: %w", err)
	}
	baseFp := base.Fingerprint()

	// ApplyCopy: the copy matches fresh, the receiver is untouched.
	cp, _, err := base.ApplyCopy(ops)
	if err != nil {
		return fmt.Errorf("delta-identity: ApplyCopy: %w", err)
	}
	if got := base.Fingerprint(); got != baseFp {
		return fmt.Errorf("delta-identity: ApplyCopy mutated its receiver: fingerprint %x -> %x", baseFp, got)
	}
	if got, want := cp.Fingerprint(), fresh.Fingerprint(); got != want {
		return fmt.Errorf("delta-identity: ApplyCopy fingerprint %x, fresh rebuild %x", got, want)
	}

	// Apply in place, carrying a Warm cache across the update.
	warm := base.NewWarm()
	touched, err := base.Apply(ops)
	if err != nil {
		return fmt.Errorf("delta-identity: Apply: %w", err)
	}
	if len(touched) == 0 {
		return fmt.Errorf("delta-identity: Apply(%d ops) reported no touched nodes", len(ops))
	}
	for i := 1; i < len(touched); i++ {
		if touched[i] <= touched[i-1] {
			return fmt.Errorf("delta-identity: touched nodes not sorted-distinct at %d: %v", i, touched)
		}
	}
	if got, want := base.Fingerprint(), fresh.Fingerprint(); got != want {
		return fmt.Errorf("delta-identity: Apply fingerprint %x, fresh rebuild %x", got, want)
	}
	if got, want := base.Problem().Flows.Len(), updated.Flows.Len(); got != want {
		return fmt.Errorf("delta-identity: Apply left %d flows, oracle has %d", got, want)
	}

	// Every solver agrees bit-for-bit between the delta'd and fresh engine.
	for _, sv := range core.Solvers() {
		got, err := sv.Solve(base)
		if err != nil {
			return fmt.Errorf("delta-identity: %s on delta engine: %w", sv.Name, err)
		}
		want, err := sv.Solve(fresh)
		if err != nil {
			return fmt.Errorf("delta-identity: %s on fresh engine: %w", sv.Name, err)
		}
		if err := placementsIdentical(want, got); err != nil {
			return fmt.Errorf("delta-identity: %s diverges after delta: %w", sv.Name, err)
		}
	}

	// Warm-start: refresh against the touched set, then the warm lazy solve
	// must coincide with the cold one on the same engine.
	warm.Refresh(base, touched)
	warmPl, err := core.GreedyLazyWarm(base, warm)
	if err != nil {
		return fmt.Errorf("delta-identity: warm lazy: %w", err)
	}
	coldPl, err := core.GreedyLazy(base)
	if err != nil {
		return fmt.Errorf("delta-identity: cold lazy: %w", err)
	}
	if err := placementsIdentical(coldPl, warmPl); err != nil {
		return fmt.Errorf("delta-identity: warm-start lazy diverges from cold: %w", err)
	}

	// Prefix evaluation over a seed-sampled placement (candidates are
	// untouched by flow updates, so the sample is valid on both engines).
	nodes := samplePlacement(inst, 42, 6)
	gotPre, wantPre := base.EvaluatePrefixes(nodes), fresh.EvaluatePrefixes(nodes)
	for i := range wantPre {
		if math.Float64bits(gotPre[i]) != math.Float64bits(wantPre[i]) {
			return fmt.Errorf("delta-identity: EvaluatePrefixes[%d] = %v on delta engine, %v fresh: not bit-identical",
				i, gotPre[i], wantPre[i])
		}
	}
	return nil
}
