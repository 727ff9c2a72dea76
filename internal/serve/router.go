package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"roadside/internal/core"
	"roadside/internal/obs"
	"roadside/internal/wire"
)

// DefaultRingReplicas is the number of virtual points each shard
// contributes to the consistent-hash ring. More points smooth the key
// distribution; the count only affects balance, never correctness.
const DefaultRingReplicas = 64

// Backend is one shard worker behind the router: a serve.Server reachable
// at URL whose job IDs carry Name as their prefix (Config.JobIDPrefix is
// Name + "-").
type Backend struct {
	Name string // stable shard name, e.g. "w0"
	URL  string // base URL, e.g. "http://127.0.0.1:40211"
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	Backends []Backend
	// Replicas is the virtual-node count per backend on the hash ring
	// (<= 0 means DefaultRingReplicas).
	Replicas int
	// MaxBody caps request body size (<= 0 means DefaultMaxBody). The
	// router reads bodies to extract routing keys, so it enforces the same
	// limit the workers do.
	MaxBody int64
	// Timeout is the per-request deadline ceiling of the workers behind
	// the router (<= 0 means DefaultTimeout). It sizes the default proxy
	// client at Timeout+10s so a worker legally using its whole deadline
	// is never cut off by the router. Ignored when Client is set.
	Timeout time.Duration
	// Client issues the proxied requests (nil means a client whose overall
	// timeout is Timeout+10s).
	Client *http.Client
	// Metrics receives the router's counters (nil means a fresh registry).
	Metrics *obs.Registry
}

// Router is the scale-out front of the serving tier: a consistent-hash
// proxy spreading engine cache load across shard workers. Every request is
// routed by its base problem digest — by-reference requests carry it
// verbatim, full-problem requests have it computed from the decoded spec —
// so one lineage always lands on one shard: the shard that built the
// engine owns its updates and its derived digests, which is what keeps
// base@seq lineage linear under horizontal scale. Job status and cancel
// route by the job ID's shard-name prefix instead.
//
// A backend that genuinely fails at the transport level (refused or reset
// connection) is marked down: the failing request answers 502 shard_down
// (machine-readable, like every other failure in the API) and subsequent
// requests for its keys re-route deterministically to the next live shard
// on the ring. Down is sticky — under cmd/serverap the workers are
// in-process, so a dead worker means the process is on its way out, not
// flapping. A client that disconnects mid-proxy or a worker slow enough
// to trip the proxy client's timeout is NOT a shard failure and never
// marks the backend down: its keys keep their owner and its job IDs stay
// reachable.
type Router struct {
	backends []*routedBackend
	ring     []ringPoint // sorted by hash
	maxBody  int64
	client   *http.Client
	metrics  *obs.Registry
	mux      *http.ServeMux
	start    time.Time

	requests, routeErrs *obs.Counter
	reroutes            *obs.Counter
}

type routedBackend struct {
	Backend
	down     atomic.Bool
	proxied  *obs.Counter
	failures *obs.Counter
}

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// NewRouter builds a Router over the given backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one backend")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultRingReplicas
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.Timeout + 10*time.Second}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	r := &Router{
		maxBody:   cfg.MaxBody,
		client:    cfg.Client,
		metrics:   cfg.Metrics,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		requests:  cfg.Metrics.Counter("router.requests"),
		routeErrs: cfg.Metrics.Counter("router.errors"),
		reroutes:  cfg.Metrics.Counter("router.reroutes"),
	}
	seen := map[string]bool{}
	for _, b := range cfg.Backends {
		if b.Name == "" || strings.ContainsRune(b.Name, '-') {
			return nil, fmt.Errorf("serve: backend name %q must be non-empty and free of '-'", b.Name)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("serve: duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		rb := &routedBackend{
			Backend:  b,
			proxied:  cfg.Metrics.Counter("router.backend." + b.Name + ".proxied"),
			failures: cfg.Metrics.Counter("router.backend." + b.Name + ".failures"),
		}
		r.backends = append(r.backends, rb)
	}
	for bi := range r.backends {
		for v := 0; v < cfg.Replicas; v++ {
			r.ring = append(r.ring, ringPoint{
				hash:    fnvHash(fmt.Sprintf("%s#%d", r.backends[bi].Name, v)),
				backend: bi,
			})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		return r.ring[i].backend < r.ring[j].backend
	})
	r.mux.HandleFunc("/v1/jobs/", r.handleJobRoute)
	for _, path := range []string{"/v1/place", "/v1/evaluate", "/v1/detour", "/v1/update", "/v1/batch", "/v1/jobs"} {
		r.mux.HandleFunc(path, r.handleKeyed)
	}
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	r.mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		writeError(w, &APIError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: "unknown endpoint " + req.URL.Path})
	})
	return r, nil
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Metrics returns the registry the router reports into.
func (r *Router) Metrics() *obs.Registry { return r.metrics }

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	//lint:ignore errdrop hash.Hash.Write is documented to never return an error
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Owner returns the name of the live backend owning the given routing key.
// Exported so tests and the load harness can predict routing decisions.
func (r *Router) Owner(key string) (string, bool) {
	rb := r.pick(key)
	if rb == nil {
		return "", false
	}
	return rb.Name, true
}

// pick walks the ring clockwise from the key's hash to the first live
// backend. The walk order is a pure function of the key and the down-set,
// so re-routing after a shard loss is deterministic: every request for a
// key moves to the same successor.
func (r *Router) pick(key string) *routedBackend {
	h := fnvHash(key)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	tried := map[int]bool{}
	for n := 0; n < len(r.ring) && len(tried) < len(r.backends); n++ {
		pt := r.ring[(i+n)%len(r.ring)]
		if tried[pt.backend] {
			continue
		}
		tried[pt.backend] = true
		rb := r.backends[pt.backend]
		if !rb.down.Load() {
			if len(tried) > 1 {
				r.reroutes.Inc()
			}
			return rb
		}
	}
	return nil
}

// routeKeys are the members a routing decision reads. Every POST body in
// the API carries either a digest reference or a full problem; job
// envelopes nest one inside request.
var routeKeys = requestKeys("digest", "request")

// routingKey extracts the base-digest routing key from a request body. A
// digest reference yields its base digest exactly; a full problem is
// decoded and digested so the follow-up by-reference queries, updates,
// and lineage digests all hash to the same shard that builds the engine.
// A job envelope takes the key of its inner request, so a job lands on the
// same shard its synchronous twin would. Workers read one envelope level
// and reject anything nested deeper, so a nested envelope is followed no
// further: like every body that fails to decode or validate, it is its own
// key. The owner shard produces the canonical error response, and equal
// bodies still route equally.
func (r *Router) routingKey(body []byte) string {
	key, request := bodyRoute(body)
	if request == nil {
		return key
	}
	if key, nested := bodyRoute(request); nested == nil {
		return key
	}
	return string(body)
}

// bodyRoute reads one body in one walk and returns its routing key, or,
// for a job envelope, the inner request the key comes from instead.
func bodyRoute(body []byte) (key string, request []byte) {
	var (
		spec   ProblemSpec
		digest string
	)
	sw, apiErr := decodeSpecBody(body, routeKeys, &spec, func(d *wire.Decoder, name string, sw *specWire) error {
		var err error
		switch name {
		case "digest":
			err = d.String(&digest)
		case "request":
			request, err = d.Raw()
		default:
			err = sw.wireField(d, name)
		}
		return err
	})
	if apiErr != nil {
		return string(body), nil
	}
	if digest == "" && spec.Graph == nil && len(request) > 0 {
		return "", request
	}
	if digest != "" {
		if base, _, err := core.SplitDigest(digest); err == nil {
			return base, nil
		}
		return digest, nil
	}
	if spec.Graph != nil {
		if p, apiErr := decodeProblem(sw, 1); apiErr == nil {
			if digest, err := p.digest(); err == nil {
				return digest, nil
			}
		}
	}
	return string(body), nil
}

// handleKeyed proxies one digest-routed request.
func (r *Router) handleKeyed(w http.ResponseWriter, req *http.Request) {
	r.requests.Inc()
	if req.Method != http.MethodPost {
		r.routeErrs.Inc()
		writeError(w, errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"%s requires POST, got %s", req.URL.Path, req.Method))
		return
	}
	body, apiErr := readBody(w, req, r.maxBody)
	if apiErr != nil {
		r.routeErrs.Inc()
		writeError(w, apiErr)
		return
	}
	r.proxy(w, req, r.pick(r.routingKey(body)), body)
}

// handleJobRoute proxies GET/DELETE /v1/jobs/{id} by the job ID's
// shard-name prefix ("w3-j17" was minted by shard w3).
func (r *Router) handleJobRoute(w http.ResponseWriter, req *http.Request) {
	r.requests.Inc()
	id := strings.TrimPrefix(req.URL.Path, "/v1/jobs/")
	dash := strings.IndexByte(id, '-')
	if dash <= 0 {
		r.routeErrs.Inc()
		writeError(w, errorf(http.StatusNotFound, CodeUnknownJob,
			"job id %q carries no shard prefix", id))
		return
	}
	name := id[:dash]
	for _, rb := range r.backends {
		if rb.Name == name {
			if rb.down.Load() {
				// Job state lives only on its owning shard; a dead shard's
				// jobs are gone, not re-routable.
				r.routeErrs.Inc()
				writeError(w, r.shardDown(rb))
				return
			}
			r.proxy(w, req, rb, nil)
			return
		}
	}
	r.routeErrs.Inc()
	writeError(w, errorf(http.StatusNotFound, CodeUnknownJob,
		"job id %q names no shard of this router", id))
}

func (r *Router) shardDown(rb *routedBackend) *APIError {
	return errorf(http.StatusBadGateway, CodeShardDown, "shard %s is down", rb.Name)
}

// proxy forwards the request to rb and streams the response back,
// preserving status, body, and the content-type / Retry-After headers the
// API contract uses. A genuine transport-level failure marks the backend
// down and answers 502 shard_down; a canceled client or a timed-out proxy
// call does not (see the classification in the error branch).
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, rb *routedBackend, body []byte) {
	if rb == nil {
		r.routeErrs.Inc()
		writeError(w, errorf(http.StatusBadGateway, CodeShardDown, "no live shard for this request"))
		return
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, rb.URL+req.URL.Path, bytes.NewReader(body))
	if err != nil {
		r.routeErrs.Inc()
		writeError(w, errorf(http.StatusInternalServerError, CodeInternal, "build proxy request: %v", err))
		return
	}
	if body != nil {
		out.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(out)
	if err != nil {
		r.routeErrs.Inc()
		// Classify before blaming the shard. The outbound request shares the
		// incoming request's context, so a client that disconnects or
		// cancels mid-proxy fails client.Do with the worker blameless; and a
		// slow-but-alive worker that trips the proxy client's timeout is a
		// request failure, not a dead process. Marking either down would
		// re-route its keys (breaking the digest→shard lineage pinning) and
		// orphan every job ID the shard minted. Only genuine transport
		// failures — refused or reset connections — are sticky-down.
		if req.Context().Err() != nil || errors.Is(err, context.Canceled) {
			writeError(w, ctxError(err))
			return
		}
		rb.failures.Inc()
		var ne net.Error
		if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
			writeError(w, errorf(http.StatusGatewayTimeout, CodeDeadlineExceeded,
				"shard %s: %v", rb.Name, err))
			return
		}
		rb.down.Store(true)
		writeError(w, r.shardDown(rb))
		return
	}
	//lint:ignore errdrop read-only response body, close error is immaterial
	defer resp.Body.Close()
	rb.proxied.Inc()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	//lint:ignore errdrop headers are already sent; a failed copy only truncates the body
	_, _ = io.Copy(w, resp.Body)
}

// RouterHealth answers GET /healthz on the router: per-shard liveness as
// the router believes it, without probing.
type RouterHealth struct {
	Status  string            `json:"status"` // ok | degraded
	UptimeS float64           `json:"uptime_s"`
	Shards  map[string]string `json:"shards"` // name -> up | down
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"/healthz requires GET, got %s", req.Method))
		return
	}
	h := RouterHealth{Status: "ok", UptimeS: time.Since(r.start).Seconds(), Shards: map[string]string{}}
	for _, rb := range r.backends {
		state := "up"
		if rb.down.Load() {
			state = "down"
			h.Status = "degraded"
		}
		h.Shards[rb.Name] = state
	}
	writeJSON(w, http.StatusOK, &h)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"/metrics requires GET, got %s", req.Method))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//lint:ignore errdrop headers are already sent; a failed write only truncates the export
	_ = r.metrics.WriteText(w)
}
