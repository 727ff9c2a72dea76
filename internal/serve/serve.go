// Package serve exposes the placement engine as a long-running JSON API —
// placement-as-a-service. Every earlier entry point (cmd/placerap, the
// experiment runners) pays full engine preprocessing per invocation; this
// package amortizes it the way an online advertisement-dissemination
// deployment would: a byte-budgeted LRU of preprocessed engines keyed by
// core.ProblemDigest, with singleflight coalescing so N concurrent queries
// for the same uncached problem trigger exactly one engine build.
//
// Endpoints (all bodies JSON):
//
//	POST /v1/place     problem + k + algo    -> placement (nodes, objective, step gains)
//	POST /v1/evaluate  problem + placement   -> objective + per-flow attraction
//	POST /v1/detour    problem + node set    -> per-node flow visits and detours
//	POST /v1/update    digest + flow updates -> new lineage digest ("base@seq")
//	GET  /healthz                            -> liveness + cache occupancy
//	GET  /metrics                            -> text export of the server's obs registry
//
// /v1/update is the delta path: instead of re-sending a whole problem per
// traffic drift, a client ships the volume changes / flow adds / removes
// against a digest it got from an earlier response. The cached engine
// absorbs them as a delta (core.ApplyCopy, orders of magnitude below a
// rebuild) and the lineage advances to a derived digest base@seq; place,
// evaluate, and detour accept either the base (latest revision) or a
// pinned base@seq by reference, with no problem body at all.
//
// Contracts the tests pin:
//
//   - Bit-identity: a served placement equals a fresh single-threaded
//     engine's answer bit-for-bit, whatever mix of cache hits, coalesced
//     waits, and evictions produced it (engines are immutable; the solvers
//     are deterministic at every worker count).
//   - One build per digest: concurrent requests for the same uncached
//     problem coalesce onto one construction; the serve.engine.builds
//     counter is exact.
//   - Bounded work: solver execution (and the build it may imply) runs
//     under a par.Gate, per-request deadlines come from context, request
//     bodies are size-limited, and Drain refuses new work while letting
//     in-flight solves finish.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roadside/internal/obs"
	"roadside/internal/par"
)

// Defaults for Config fields left zero.
const (
	DefaultCacheBytes = 256 << 20 // engine-arena budget of the LRU
	DefaultMaxBody    = 8 << 20   // request body limit
	DefaultTimeout    = 30 * time.Second
)

// Config parameterizes a Server. The zero value is production-usable.
type Config struct {
	// CacheBytes budgets the engine cache by Engine.ArenaBytes; at least
	// the most recent engine is always retained (<= 0 means
	// DefaultCacheBytes).
	CacheBytes int64
	// MaxBody caps request body size in bytes (<= 0 means DefaultMaxBody).
	MaxBody int64
	// MaxInFlight bounds concurrent engine builds + solver executions
	// (<= 0 means 2*GOMAXPROCS; each solve already fans across the
	// worker pool internally).
	MaxInFlight int
	// Timeout is the per-request deadline ceiling; requests may ask for
	// less via timeout_ms but never more (<= 0 means DefaultTimeout).
	Timeout time.Duration
	// Metrics receives the server's counters, gauges, and histograms
	// (nil means a fresh private registry; read it via Metrics()).
	Metrics *obs.Registry
	// MaxBatchItems caps the item count of one /v1/batch request
	// (<= 0 means DefaultMaxBatchItems).
	MaxBatchItems int
	// JobWorkers is the async-job worker count (<= 0 means
	// DefaultJobWorkers).
	JobWorkers int
	// JobQueue bounds the pending-job queue; a full queue answers 429
	// queue_full with a Retry-After hint (<= 0 means DefaultJobQueue).
	JobQueue int
	// JobTTL is how long a finished job's result stays fetchable before
	// GET answers 410 job_expired (<= 0 means DefaultJobTTL).
	JobTTL time.Duration
	// JobIDPrefix prefixes every job ID this server mints. Shard workers
	// behind a Router set it to "<shardname>-" so the router can route
	// GET /v1/jobs/{id} back to the owning shard. Must not contain '-'
	// beyond the trailing separator.
	JobIDPrefix string
}

// Server is the placement query service. Create one with New, mount
// Handler on an http.Server, and call Drain before shutting down so
// in-flight solves complete. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	cache   *engineCache
	gate    *par.Gate
	mux     *http.ServeMux
	start   time.Time
	jobs    *jobs

	draining  atomic.Bool
	inflight  sync.WaitGroup
	inflightN atomic.Int64
	inflightG *obs.Gauge

	batchItems *obs.Counter
	batchErrs  *obs.Counter
	jobErrs    *obs.Counter
}

// New builds a Server from cfg, applying defaults to zero fields.
func New(cfg Config) *Server {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = DefaultMaxBatchItems
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = DefaultJobWorkers
	}
	if cfg.JobQueue <= 0 {
		cfg.JobQueue = DefaultJobQueue
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = DefaultJobTTL
	}
	s := &Server{
		cfg:        cfg,
		metrics:    cfg.Metrics,
		cache:      newEngineCache(cfg.CacheBytes, cfg.Metrics),
		gate:       par.NewGate(cfg.MaxInFlight),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		jobs:       newJobs(cfg.JobQueue, DefaultJobRetain, cfg.JobTTL, cfg.JobIDPrefix, cfg.Metrics),
		inflightG:  cfg.Metrics.Gauge("serve.inflight"),
		batchItems: cfg.Metrics.Counter("serve.batch.items"),
		batchErrs:  cfg.Metrics.Counter("serve.batch.item_errors"),
		jobErrs:    cfg.Metrics.Counter("serve.jobs.errors"),
	}
	s.jobs.start(s, cfg.JobWorkers)
	s.mux.HandleFunc("/v1/place", s.solveEndpoint("place", s.handlePlace))
	s.mux.HandleFunc("/v1/evaluate", s.solveEndpoint("evaluate", s.handleEvaluate))
	s.mux.HandleFunc("/v1/detour", s.solveEndpoint("detour", s.handleDetour))
	s.mux.HandleFunc("/v1/update", s.solveEndpoint("update", s.handleUpdate))
	s.mux.HandleFunc("/v1/batch", s.solveEndpoint("batch", s.handleBatch))
	s.mux.HandleFunc("/v1/jobs", s.solveEndpoint("jobs", s.handleJobSubmit))
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &APIError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: "unknown endpoint " + r.URL.Path})
	})
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Drain switches the server into shutdown mode — new requests are refused
// with 503 shutting_down — and blocks until every in-flight request has
// completed or ctx is done. Accepted async jobs count as in-flight from
// submit until they reach a terminal state, so Drain waits for the queue
// to empty before stopping the job workers. Pair it with
// http.Server.Shutdown: Drain guarantees no solve is abandoned
// mid-computation at the application layer, Shutdown closes the listeners.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.jobs.shutdown()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// requestContext derives the per-request deadline: the server ceiling,
// lowered by the request's timeout_ms when one is given.
func (s *Server) requestContext(parent context.Context, timeoutMS float64) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS * float64(time.Millisecond)); req < d {
			d = req
		}
	}
	return context.WithTimeout(parent, d)
}
