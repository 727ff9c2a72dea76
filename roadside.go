// Package roadside is a Go library for optimizing roadside advertisement
// dissemination in Vehicular Cyber-Physical Systems, reproducing Zheng and
// Wu, "Optimizing Roadside Advertisement Dissemination in Vehicular
// Cyber-Physical Systems" (IEEE ICDCS 2015).
//
// A shop places k Roadside Access Points (RAPs) at street intersections to
// broadcast advertisements to passing traffic; a driver who receives one
// detours to the shop with a probability that decreases in the extra
// distance the detour costs. The library provides:
//
//   - the street-network, traffic-flow, and detour-probability models;
//   - Algorithm 1 (greedy maximum coverage, 1-1/e under the threshold
//     utility) and Algorithm 2 (composite greedy, 1-1/sqrt(e) under any
//     decreasing utility) for the general scenario;
//   - Algorithms 3 and 4 (two-stage, near-optimal) for the Manhattan grid
//     scenario of Section IV;
//   - the four baselines of the paper's evaluation, an exhaustive optimum
//     for small instances, synthetic Dublin/Seattle substrates with a GPS
//     trace + map-matching pipeline, and the full figure-reproduction
//     harness.
//
// This root package is a façade: it re-exports the library's public
// surface so applications can depend on a single import path. The
// implementation lives in internal/ packages, one per subsystem.
package roadside

import (
	"math/rand"

	"roadside/internal/baseline"
	"roadside/internal/citygen"
	"roadside/internal/classify"
	"roadside/internal/core"
	"roadside/internal/experiment"
	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/manhattan"
	"roadside/internal/model"
	"roadside/internal/opt"
	"roadside/internal/report"
	"roadside/internal/sched"
	"roadside/internal/sim"
	"roadside/internal/trace"
	"roadside/internal/utility"
	"roadside/internal/viz"
)

// ---- Geometry ----

// Point is a planar location in feet.
type Point = geo.Point

// BBox is an axis-aligned bounding box.
type BBox = geo.BBox

// LonLat is a geographic coordinate.
type LonLat = geo.LonLat

// Projection converts lon/lat to the planar frame.
type Projection = geo.Projection

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewProjection builds an equirectangular projection centered at origin.
func NewProjection(origin LonLat) (*Projection, error) { return geo.NewProjection(origin) }

// ---- Street graph ----

// NodeID identifies a street intersection.
type NodeID = graph.NodeID

// InvalidNode is the sentinel for "no node".
const InvalidNode = graph.Invalid

// Graph is an immutable directed weighted street network.
type Graph = graph.Graph

// GraphBuilder accumulates nodes and streets.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder with capacity hints.
func NewGraphBuilder(nodes, edges int) *GraphBuilder { return graph.NewBuilder(nodes, edges) }

// ManyToManyDistances computes the dense (sources x targets) shortest-path
// rectangle without materializing full trees, bit-identical to running one
// reverse Dijkstra per target.
func ManyToManyDistances(g *Graph, sources, targets []NodeID, workers int) (*graph.Rect, error) {
	return g.ManyToMany(sources, targets, workers)
}

// ---- Utility functions ----

// UtilityFunction maps detour distance to detour probability.
type UtilityFunction = utility.Function

// ThresholdUtility is Eq. 1 of the paper.
type ThresholdUtility = utility.Threshold

// LinearUtility is Eq. 2 ("decreasing utility function i").
type LinearUtility = utility.Linear

// SqrtUtility is Eq. 11 ("decreasing utility function ii").
type SqrtUtility = utility.Sqrt

// UtilityByName constructs a built-in utility ("threshold", "linear",
// "sqrt") with threshold d.
func UtilityByName(name string, d float64) (UtilityFunction, error) {
	return utility.ByName(name, d)
}

// ---- Traffic flows ----

// Flow is a daily traffic flow with a fixed route.
type Flow = flow.Flow

// FlowSet is an immutable flow collection with per-node incidence.
type FlowSet = flow.Set

// NewFlow constructs and validates a flow.
func NewFlow(id string, path []NodeID, volume, alpha float64) (Flow, error) {
	return flow.New(id, path, volume, alpha)
}

// NewFlowSet builds a flow set.
func NewFlowSet(flows []Flow) (*FlowSet, error) { return flow.NewSet(flows) }

// ---- Placement problem and algorithms ----

// Problem is a fully specified RAP placement instance.
type Problem = core.Problem

// Placement is a solved placement with its attracted-customer objective.
type Placement = core.Placement

// Engine precomputes detours and evaluates placements.
type Engine = core.Engine

// NewEngine validates a problem and precomputes all detour distances.
func NewEngine(p *Problem) (*Engine, error) { return core.NewEngine(p) }

// NewEngineMaxShard builds an engine whose visit arenas are split into
// shards of at most maxShardVisits entries each, bounding peak transient
// memory during construction. Query results are bit-identical to the
// default single-shard build.
func NewEngineMaxShard(p *Problem, workers, maxShardVisits int) (*Engine, error) {
	return core.NewEngineMaxShard(p, workers, maxShardVisits)
}

// DigestVersion prefixes every problem digest; it changes whenever the
// canonical encoding changes. "rapd2" digests hash a binary canonical form
// of the problem (fixed-width integers, IEEE-754 float bits,
// length-framed strings and lists); "rapd1" digests hashed the JSON
// interchange encodings and are no longer produced.
const DigestVersion = core.DigestVersion

// ProblemDigest returns the stable content digest of a problem: equal
// digests mean interchangeable engines. The budget K is excluded — one
// engine answers every budget. It is the cache key of the placement query
// service (internal/serve, cmd/serverap) and the canonical way to label a
// problem instance in reports and benchmarks.
func ProblemDigest(p *Problem) (string, error) { return core.ProblemDigest(p) }

// Algorithm1 is the paper's greedy maximum-coverage solution (threshold
// utility, ratio 1-1/e).
func Algorithm1(e *Engine) (*Placement, error) { return core.Algorithm1(e) }

// Algorithm2 is the paper's composite greedy (decreasing utilities, ratio
// 1-1/sqrt(e)).
func Algorithm2(e *Engine) (*Placement, error) { return core.Algorithm2(e) }

// GreedyCombined maximizes the total marginal gain each step (ablation).
func GreedyCombined(e *Engine) (*Placement, error) { return core.GreedyCombined(e) }

// GreedyLazy is a lazy-evaluation combined greedy (ablation).
func GreedyLazy(e *Engine) (*Placement, error) { return core.GreedyLazy(e) }

// UpdateOp selects what a FlowUpdate does.
type UpdateOp = core.UpdateOp

// The delta operations: set a flow's daily volume, remove a flow (later
// indices shift down), append a new flow.
const (
	OpSetVolume  = core.OpSetVolume
	OpRemoveFlow = core.OpRemoveFlow
	OpAddFlow    = core.OpAddFlow
)

// FlowUpdate is one element of a delta batch; see Engine.Apply.
type FlowUpdate = core.FlowUpdate

// ApplyToProblem returns a new problem with the update batch applied to
// the flow set — the build-from-scratch oracle for Engine.Apply.
func ApplyToProblem(p *Problem, ops []FlowUpdate) (*Problem, error) {
	return core.ApplyToProblem(p, ops)
}

// Warm is an owned copy of an engine's standalone gains, the lazy
// greedy's initial bounds; see Engine.NewWarm, Warm.Refresh, and
// GreedyLazyWarm. Engines keep and inherit these gains across updates
// themselves, so GreedyLazy on an updated engine needs no Warm; a Warm is
// for callers that carry the bounds across updates on their own.
type Warm = core.Warm

// GreedyLazyWarm is GreedyLazy seeded from a Warm instead of the engine's
// own gains, bit-identical to GreedyLazy.
func GreedyLazyWarm(e *Engine, w *Warm) (*Placement, error) { return core.GreedyLazyWarm(e, w) }

// DeriveDigest names revision seq of the lineage rooted at base
// ("base@seq"); seq 0 is base itself.
func DeriveDigest(base string, seq int) string { return core.DeriveDigest(base, seq) }

// SplitDigest parses a digest reference into its base and revision.
func SplitDigest(ref string) (string, int, error) { return core.SplitDigest(ref) }

// Exhaustive returns an optimal placement within a combination budget.
func Exhaustive(e *Engine, budget int64) (*Placement, error) {
	return opt.Exhaustive(e, opt.Options{Budget: budget})
}

// ---- Objective models ----

// ObjectiveModel swaps the engine's objective economy; set it on
// Problem.Model. Nil keeps the paper's additive coverage objective.
type ObjectiveModel = core.ObjectiveModel

// ProbabilisticModel is probabilistic coverage: each placed RAP converts a
// flow with probability reception*Prob(detour, alpha) and RAPs compose
// independently (1 - prod(1-p)).
type ProbabilisticModel = model.Probabilistic

// ResistanceModel weighs candidates by random-walk accessibility to the
// shop: 1/(1 + R_eff/scale) on the grounded street-network Laplacian.
type ResistanceModel = model.Resistance

// CapacityModel models a finite shared downlink: saturated RAPs deliver a
// shrinking advertisement fraction, collapsing to zero below a completion
// floor.
type CapacityModel = model.Capacity

// ModelFromConfig builds an objective model from its JSON wire config.
func ModelFromConfig(data []byte) (ObjectiveModel, error) { return model.ParseConfig(data) }

// ModelToConfig renders an objective model as canonical JSON.
func ModelToConfig(m ObjectiveModel) ([]byte, error) { return model.EncodeConfig(m) }

// ExhaustiveObjective runs the budgeted exhaustive search over any
// monotone submodular objective (see opt.Objective for the surface).
func ExhaustiveObjective(obj opt.Objective, budget int64) (*Placement, error) {
	return opt.ExhaustiveObjective(obj, opt.Options{Budget: budget})
}

// BudgetedProblem adds per-intersection costs and a spend budget.
type BudgetedProblem = core.BudgetedProblem

// BudgetedPlacement is a solved budgeted placement.
type BudgetedPlacement = core.BudgetedPlacement

// BudgetedGreedy solves the budgeted variant with the cost-benefit greedy
// plus best-singleton guard ((1-1/e)/2 approximation).
func BudgetedGreedy(e *Engine, bp *BudgetedProblem) (*BudgetedPlacement, error) {
	return core.BudgetedGreedy(e, bp)
}

// UniformCosts assigns every candidate the same installation cost.
func UniformCosts(e *Engine, cost float64) map[NodeID]float64 {
	return core.UniformCosts(e, cost)
}

// DrivePlan materializes a driver's actual route under a placement.
type DrivePlan = core.DrivePlan

// GridDrivePlan materializes a grid driver's route (Manhattan scenario).
type GridDrivePlan = manhattan.GridPlan

// ---- Baselines ----

// MaxCardinality places RAPs at the intersections with most passing flows.
func MaxCardinality(e *Engine) (*Placement, error) { return baseline.MaxCardinality(e) }

// MaxVehicles places RAPs at the intersections with most passing vehicles.
func MaxVehicles(e *Engine) (*Placement, error) { return baseline.MaxVehicles(e) }

// MaxCustomers places RAPs at the top standalone intersections.
func MaxCustomers(e *Engine) (*Placement, error) { return baseline.MaxCustomers(e) }

// RandomPlacement places RAPs uniformly within the D x D square around the
// shop.
func RandomPlacement(e *Engine, rng *rand.Rand) (*Placement, error) {
	return baseline.Random(e, rng)
}

// ---- Manhattan grid scenario ----

// GridScenario is an N x N Manhattan grid with the shop at the center.
type GridScenario = manhattan.Scenario

// GridFlow is a flow crossing the grid region between boundary sides.
type GridFlow = manhattan.GridFlow

// BoundarySide identifies a side of the grid region.
type BoundarySide = manhattan.BoundarySide

// Grid boundary sides.
const (
	West  = manhattan.West
	East  = manhattan.East
	North = manhattan.North
	South = manhattan.South
)

// GridFlowKind classifies grid flows (straight / turned / other).
type GridFlowKind = manhattan.Kind

// Grid flow kinds per Definition 3.
const (
	StraightFlow = manhattan.Straight
	TurnedFlow   = manhattan.Turned
	OtherFlow    = manhattan.Other
)

// NewGridScenario builds the grid street plan (n odd).
func NewGridScenario(n int, spacing float64) (*GridScenario, error) {
	return manhattan.NewScenario(n, spacing)
}

// Algorithm3 is the two-stage Manhattan solution for the threshold utility
// (ratio 1-4/k over turned and straight flows).
func Algorithm3(sc *GridScenario, flows []GridFlow, u UtilityFunction, k int) (*Placement, error) {
	return manhattan.Algorithm3(sc, flows, u, k, manhattan.Config{})
}

// Algorithm4 is the two-stage Manhattan solution for decreasing utilities
// (ratio 1/2-2/k).
func Algorithm4(sc *GridScenario, flows []GridFlow, u UtilityFunction, k int) (*Placement, error) {
	return manhattan.Algorithm4(sc, flows, u, k, manhattan.Config{})
}

// ---- Substrates ----

// City is a generated street network.
type City = citygen.City

// Dublin generates the Dublin-like irregular city (80,000 ft extent).
func Dublin(seed int64) (*City, error) { return citygen.Dublin(seed) }

// Seattle generates the Seattle-like partial-grid city (10,000 ft extent).
func Seattle(seed int64) (*City, error) { return citygen.Seattle(seed) }

// Mega generates a Dublin-style irregular city with at least the requested
// number of intersections — the OSM-scale path (million-node instances).
func Mega(nodes int, seed int64) (*City, error) { return citygen.Mega(nodes, seed) }

// LocalDemandConfig parameterizes hub-based local flow synthesis for
// mega-scale cities.
type LocalDemandConfig = citygen.LocalDemandConfig

// DefaultLocalDemand is the 100k-flow demand used by the large benchmark.
func DefaultLocalDemand() LocalDemandConfig { return citygen.DefaultLocalDemand() }

// GenerateLocalFlows samples hub-bound flows over a city; flows pool into
// at most cfg.Hubs distinct destinations, which keeps engine preprocessing
// tractable at mega scale.
func GenerateLocalFlows(c *City, cfg LocalDemandConfig, seed int64) ([]Flow, error) {
	return citygen.GenerateLocalFlows(c, cfg, seed)
}

// BusRoute is a generated journey pattern.
type BusRoute = citygen.Route

// DemandConfig parameterizes bus-route generation.
type DemandConfig = citygen.DemandConfig

// DefaultDemand is the demand model used by the experiment harness.
func DefaultDemand() DemandConfig { return citygen.DefaultDemand() }

// GenerateRoutes samples bus routes over a city.
func GenerateRoutes(c *City, cfg DemandConfig, seed int64) ([]BusRoute, error) {
	return citygen.GenerateRoutes(c, cfg, seed)
}

// RoutesToFlows converts routes to traffic flows directly.
func RoutesToFlows(routes []BusRoute, passengersPerBus, alpha float64) ([]Flow, error) {
	return citygen.RoutesToFlows(routes, passengersPerBus, alpha)
}

// GridDemandConfig parameterizes Manhattan-grid crossing demand.
type GridDemandConfig = citygen.GridDemandConfig

// DefaultGridDemand is the grid demand used by the Fig. 13 harness.
func DefaultGridDemand() GridDemandConfig { return citygen.DefaultGridDemand() }

// GenerateGridFlows samples crossing flows for a grid scenario.
func GenerateGridFlows(sc *GridScenario, cfg GridDemandConfig, seed int64) ([]GridFlow, error) {
	return citygen.GenerateGridFlows(sc, cfg, seed)
}

// TraceRecord is one GPS sample.
type TraceRecord = trace.Record

// TraceGenConfig parameterizes synthetic trace generation.
type TraceGenConfig = trace.GenConfig

// DefaultTraceGenConfig matches a typical transit AVL feed.
func DefaultTraceGenConfig() TraceGenConfig { return trace.DefaultGenConfig() }

// GenerateTrace emits GPS records for every bus of every route.
func GenerateTrace(g *Graph, routes []BusRoute, cfg TraceGenConfig, seed int64) ([]TraceRecord, error) {
	return trace.Generate(g, routes, cfg, seed)
}

// TraceMatcher map-matches GPS samples to intersections.
type TraceMatcher = trace.Matcher

// Journey is a map-matched flow candidate.
type Journey = trace.Journey

// NewTraceMatcher indexes a graph for map-matching with default settings.
func NewTraceMatcher(g *Graph) (*TraceMatcher, error) {
	return trace.NewMatcher(g, trace.DefaultMatchConfig())
}

// AggregateFlows converts matched journeys to traffic flows.
func AggregateFlows(journeys []Journey, passengersPerBus, alpha float64) ([]Flow, error) {
	return trace.AggregateFlows(journeys, passengersPerBus, alpha)
}

// IntersectionClass stratifies intersections by traffic (center / city /
// suburb).
type IntersectionClass = classify.Class

// Classification assigns every intersection to a stratum.
type Classification = classify.Classification

// ClassifyIntersections stratifies intersections by passing traffic volume
// with the paper's default quantiles.
func ClassifyIntersections(fs *FlowSet, numNodes int) (*Classification, error) {
	return classify.Classify(fs, numNodes, classify.Options{})
}

// Intersection classes.
const (
	CenterClass = classify.Center
	CityClass   = classify.City
	SuburbClass = classify.Suburb
)

// ---- Experiments ----

// ExperimentResult is a completed figure reproduction.
type ExperimentResult = experiment.Result

// FigureOptions tunes a figure run.
type FigureOptions = experiment.FigureOptions

// Figure reproduces one of the paper's evaluation figures (10-13).
func Figure(number int, opts FigureOptions) ([]*ExperimentResult, error) {
	return experiment.Figure(number, opts)
}

// Ablation compares the composite greedy against its design alternatives.
func Ablation(opts FigureOptions) (*ExperimentResult, error) {
	return experiment.Ablation(opts)
}

// RatioResult is a completed approximation-ratio study.
type RatioResult = experiment.RatioResult

// RunRatios measures empirical approximation ratios against the exhaustive
// optimum on small random instances.
func RunRatios(trials int, seed int64) (*RatioResult, error) {
	return experiment.RunRatios(experiment.RatioConfig{Trials: trials, Seed: seed})
}

// ---- Multi-shop / multi-ad scheduling (the paper's future work) ----

// Campaign is one shop's advertisement campaign for the scheduler.
type Campaign = sched.Campaign

// ScheduleAssignment is a solved campaign-to-RAP schedule.
type ScheduleAssignment = sched.Assignment

// ScheduleGreedy assigns campaigns to shared RAPs, each broadcasting at
// most capacity campaigns, maximizing total attracted customers (1/2
// approximation of the optimal welfare).
func ScheduleGreedy(raps []NodeID, campaigns []Campaign, capacity int) (*ScheduleAssignment, error) {
	return sched.Greedy(raps, campaigns, capacity)
}

// ScheduleWelfare evaluates an arbitrary campaign-to-RAP assignment.
func ScheduleWelfare(raps []NodeID, campaigns []Campaign, capacity int, assignment map[string][]NodeID) (float64, error) {
	return sched.Welfare(raps, campaigns, capacity, assignment)
}

// ---- Simulation ----

// SimConfig parameterizes the stochastic dissemination microsimulator.
type SimConfig = sim.Config

// SimResult summarizes a simulation.
type SimResult = sim.Result

// Simulate realizes the dissemination process vehicle by vehicle: RAP
// radio contact along routes, Bernoulli detour decisions, realized daily
// customer counts. With zero radio range its expectation equals the
// engine's Evaluate.
func Simulate(e *Engine, placement []NodeID, cfg SimConfig) (*SimResult, error) {
	return sim.Run(e, placement, cfg)
}

// ---- Visualization and reporting ----

// MapView renders a street network and placement as an ASCII map.
type MapView = viz.Map

// MapLegend returns the key for MapView symbols.
func MapLegend() string { return viz.Legend() }

// PlacementReport analyzes a placement: coverage shares, detour
// distribution, and per-RAP attribution.
type PlacementReport = report.Report

// BuildReport analyzes the placement with the given detour-histogram
// resolution.
func BuildReport(e *Engine, placement []NodeID, buckets int) (*PlacementReport, error) {
	return report.Build(e, placement, buckets)
}
