package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadside/internal/obs"
	"roadside/internal/wire"
)

// Defaults for the async job lane (Config fields left zero).
const (
	DefaultJobWorkers = 2                // concurrent job executions
	DefaultJobQueue   = 64               // bounded queue depth behind the workers
	DefaultJobTTL     = 10 * time.Minute // result retention after a job finishes
	DefaultJobRetain  = 4096             // terminal jobs kept before the oldest are forgotten
)

// Job states reported on the wire. queued/running are live; done, failed,
// and canceled are terminal and start the result-retention TTL.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// jobRun executes one decoded job under the job's context and returns its
// result value or failure — the same (any, *APIError) contract the
// synchronous handlers use.
type jobRun func(ctx context.Context) (any, *APIError)

// jobKinds is the job-type registry: wire kind name -> decoder producing a
// runner. Decoding happens at submit time so a malformed request is
// rejected synchronously (422) instead of becoming a failed job; only
// execution is deferred. To add a job type, register its decoder here and
// document the kind in CONTRIBUTING.md ("adding a job type").
var jobKinds = map[string]func(s *Server, raw []byte) (jobRun, *APIError){
	"place": func(s *Server, raw []byte) (jobRun, *APIError) {
		req, p, apiErr := decodePlaceRequest(raw)
		if apiErr != nil {
			return nil, apiErr
		}
		return func(ctx context.Context) (any, *APIError) { return s.runPlace(ctx, req, p) }, nil
	},
	"batch": func(s *Server, raw []byte) (jobRun, *APIError) {
		req, p, apiErr := decodeBatchRequest(raw, s.cfg.MaxBatchItems)
		if apiErr != nil {
			return nil, apiErr
		}
		return func(ctx context.Context) (any, *APIError) { return s.runBatch(ctx, req, p) }, nil
	},
}

// JobRequest is the POST /v1/jobs envelope: a registered kind plus that
// kind's ordinary request body. TimeoutMS bounds the job's execution (not
// its time in the queue), under the server ceiling as everywhere else.
type JobRequest struct {
	Kind      string          `json:"kind"`
	Request   json.RawMessage `json:"request"`
	TimeoutMS float64         `json:"timeout_ms,omitempty"`
}

var jobKeys = wire.NewKeys("kind", "request", "timeout_ms")

func (req *JobRequest) wireField(d *wire.Decoder, name string) error {
	var err error
	switch name {
	case "kind":
		err = d.String(&req.Kind)
	case "request":
		req.Request, err = d.Raw()
	default:
		err = d.Float(&req.TimeoutMS)
	}
	return err
}

// decodeJobRequest parses a /v1/jobs envelope and checks its kind is
// registered and its request present; the inner request is decoded by the
// kind's decoder.
func decodeJobRequest(body []byte) (*JobRequest, *APIError) {
	var req JobRequest
	if apiErr := decodeBody(body, jobKeys, req.wireField); apiErr != nil {
		return nil, apiErr
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

// JobStatus is the wire shape of one job, returned by submit, status, and
// cancel. Result is present only in state done; Error only in failed.
type JobStatus struct {
	ID     string    `json:"id"`
	Kind   string    `json:"kind"`
	State  string    `json:"state"`
	Result any       `json:"result,omitempty"`
	Error  *APIError `json:"error,omitempty"`
}

// job is one submitted unit of work. run and kind are immutable; the rest
// is guarded by mu. done closes exactly once, when the job reaches a
// terminal state.
type job struct {
	id   string
	kind string
	run  jobRun

	enqueued time.Time // when the submit accepted it (queue-wait metric)

	mu        sync.Mutex
	state     string
	result    any
	apiErr    *APIError
	canceled  bool               // cancel requested (finishes a queued job; signals a running one via ctx)
	cancel    context.CancelFunc // non-nil while running
	expiresAt time.Time          // terminal time + TTL
	expired   bool               // TTL lapse observed; serve.jobs.expired already counted
	done      chan struct{}
}

// status snapshots the job for the wire.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobStatus{ID: j.id, Kind: j.kind, State: j.state, Result: j.result, Error: j.apiErr}
}

// terminalLocked reports whether the job has finished (j.mu held).
func (j *job) terminalLocked() bool {
	return j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
}

// jobs is the bounded asynchronous execution lane: a fixed worker pool
// draining a fixed-capacity queue, with explicit backpressure (a full
// queue rejects the submit with 429 queue_full + Retry-After instead of
// queueing unboundedly) and TTL'd retention of terminal results.
type jobs struct {
	queue   chan *job
	ttl     time.Duration
	retain  int
	prefix  string
	seq     atomic.Int64
	now     func() time.Time // swappable in tests to drive TTL expiry
	stop    chan struct{}
	workers sync.WaitGroup

	mu    sync.Mutex
	byID  map[string]*job
	order []string // submission order, for bounded tombstone retention

	submitted, rejected *obs.Counter
	completed, failed   *obs.Counter
	canceledC, expired  *obs.Counter
	depthG              *obs.Gauge
	queueUS, runUS      *obs.Histogram
}

func newJobs(queueCap, retain int, ttl time.Duration, prefix string, reg *obs.Registry) *jobs {
	return &jobs{
		queue:     make(chan *job, queueCap),
		ttl:       ttl,
		retain:    retain,
		prefix:    prefix,
		now:       time.Now,
		stop:      make(chan struct{}),
		byID:      map[string]*job{},
		submitted: reg.Counter("serve.jobs.submitted"),
		rejected:  reg.Counter("serve.jobs.rejected"),
		completed: reg.Counter("serve.jobs.completed"),
		failed:    reg.Counter("serve.jobs.failed"),
		canceledC: reg.Counter("serve.jobs.canceled"),
		expired:   reg.Counter("serve.jobs.expired"),
		depthG:    reg.Gauge("serve.jobs.queue_depth"),
		queueUS:   reg.Histogram("serve.jobs.queue_us", obs.DurationBucketsUS),
		runUS:     reg.Histogram("serve.jobs.run_us", obs.DurationBucketsUS),
	}
}

// start launches the worker pool. Workers exit when shutdown is called.
func (q *jobs) start(s *Server, n int) {
	q.workers.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer q.workers.Done()
			for {
				select {
				case j := <-q.queue:
					q.depthG.Set(float64(len(q.queue)))
					q.runOne(s, j)
				case <-q.stop:
					return
				}
			}
		}()
	}
}

// shutdown stops the worker pool after the queue has drained; Drain calls
// it once every accepted job has reached a terminal state.
func (q *jobs) shutdown() {
	close(q.stop)
	q.workers.Wait()
}

// submit validates the envelope, decodes the inner request eagerly, and
// enqueues — or rejects with queue_full when the bounded queue is at
// capacity. The caller has already counted the job into the server's
// in-flight group; on rejection the reservation is released by the caller.
func (q *jobs) submit(s *Server, body []byte, enqueued time.Time) (*job, *APIError) {
	req, apiErr := decodeJobRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	run, apiErr := jobKinds[req.Kind](s, req.Request)
	if apiErr != nil {
		return nil, apiErr
	}

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS * float64(time.Millisecond)); d < timeout {
			timeout = d
		}
	}
	j := &job{
		id:       q.prefix + "j" + strconv.FormatInt(q.seq.Add(1), 10),
		kind:     req.Kind,
		state:    JobQueued,
		enqueued: enqueued,
		done:     make(chan struct{}),
	}
	wrapped := func(ctx context.Context) (any, *APIError) {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		return run(ctx)
	}
	j.run = wrapped

	q.mu.Lock()
	q.byID[j.id] = j
	q.order = append(q.order, j.id)
	q.reapLocked()
	q.mu.Unlock()

	select {
	case q.queue <- j:
	default:
		// Backpressure: the queue is full. Forget the job and tell the
		// client when to come back — one mean run-time per queued slot is
		// the honest estimate, clamped to at least a second.
		q.mu.Lock()
		delete(q.byID, j.id)
		if n := len(q.order); n > 0 && q.order[n-1] == j.id {
			q.order = q.order[:n-1]
		}
		q.mu.Unlock()
		q.rejected.Inc()
		return nil, &APIError{Status: http.StatusTooManyRequests, Code: CodeQueueFull,
			Message:     "job queue is at capacity; retry after the Retry-After interval",
			RetryAfterS: q.retryAfterS()}
	}
	q.submitted.Inc()
	q.depthG.Set(float64(len(q.queue)))
	return j, nil
}

// retryAfterS estimates how long until a queue slot frees: queue depth
// times the mean observed run time, clamped to [1s, 60s].
func (q *jobs) retryAfterS() int {
	mean := 0.0
	if n := q.runUS.Count(); n > 0 {
		mean = q.runUS.Sum() / float64(n)
	}
	est := int(float64(len(q.queue)) * mean / 1e6)
	if est < 1 {
		return 1
	}
	if est > 60 {
		return 60
	}
	return est
}

// runOne executes one popped job. A job canceled while it was queued is
// already terminal at pop time — the pop only releases its in-flight slot;
// a cancel during the run cancels the job context and reports state
// canceled whatever the runner returned.
func (q *jobs) runOne(s *Server, j *job) {
	start := q.now()
	q.queueUS.Observe(float64(start.Sub(j.enqueued).Microseconds()))
	j.mu.Lock()
	if j.terminalLocked() || j.canceled {
		if !j.terminalLocked() {
			q.finishLocked(j, JobCanceled, nil, nil)
		}
		j.mu.Unlock()
		s.inflight.Done()
		return
	}
	// The job outlives its submit request by design; its context derives
	// from the server lifecycle, not the long-gone HTTP request.
	ctx, cancel := context.WithCancel(context.Background())
	j.state = JobRunning
	j.cancel = cancel
	j.mu.Unlock()

	result, apiErr := j.run(ctx)
	cancel()
	q.runUS.Observe(float64(q.now().Sub(start).Microseconds()))

	j.mu.Lock()
	switch {
	case j.canceled:
		q.finishLocked(j, JobCanceled, nil, nil)
	case apiErr != nil:
		q.finishLocked(j, JobFailed, nil, apiErr)
	default:
		q.finishLocked(j, JobDone, result, nil)
	}
	j.cancel = nil
	j.mu.Unlock()
	s.inflight.Done()
}

// finishLocked moves j to a terminal state (j.mu held) and starts its
// retention TTL.
func (q *jobs) finishLocked(j *job, state string, result any, apiErr *APIError) {
	j.state = state
	j.result = result
	j.apiErr = apiErr
	j.expiresAt = q.now().Add(q.ttl)
	close(j.done)
	switch state {
	case JobDone:
		q.completed.Inc()
	case JobFailed:
		q.failed.Inc()
	case JobCanceled:
		q.canceledC.Inc()
	}
}

// get resolves a job id for GET /v1/jobs/{id}. A finished job whose TTL
// has lapsed answers 410: the id was real, the result is gone.
func (q *jobs) get(id string) (*JobStatus, *APIError) {
	q.mu.Lock()
	j, ok := q.byID[id]
	q.mu.Unlock()
	if !ok {
		return nil, errorf(http.StatusNotFound, CodeUnknownJob, "no job %q", id)
	}
	j.mu.Lock()
	if j.terminalLocked() && (j.expired || q.now().After(j.expiresAt)) {
		if !j.expired {
			// Count the expiry once, on the transition — repeat polls of an
			// expired id must not inflate the metric.
			j.expired = true
			j.result = nil // release the payload; the tombstone stays until reaped
			q.expired.Inc()
		}
		j.mu.Unlock()
		return nil, errorf(http.StatusGone, CodeJobExpired,
			"job %q finished more than %v ago; its result has been released", id, q.ttl)
	}
	st := &JobStatus{ID: j.id, Kind: j.kind, State: j.state, Result: j.result, Error: j.apiErr}
	j.mu.Unlock()
	return st, nil
}

// cancelJob handles DELETE /v1/jobs/{id}: a queued job goes terminal
// immediately (done closes, the retention TTL starts, and the worker just
// releases its slot at pop), a running job has its context canceled, and a
// terminal job is returned as-is — cancel is idempotent.
func (q *jobs) cancelJob(id string) (*JobStatus, *APIError) {
	q.mu.Lock()
	j, ok := q.byID[id]
	q.mu.Unlock()
	if !ok {
		return nil, errorf(http.StatusNotFound, CodeUnknownJob, "no job %q", id)
	}
	j.mu.Lock()
	if !j.terminalLocked() {
		j.canceled = true
		switch {
		case j.state == JobQueued:
			// Terminal now, not at pop: on a backed-up queue the cancel must
			// be observable immediately, not look like a no-op until a
			// worker gets around to the tombstone.
			q.finishLocked(j, JobCanceled, nil, nil)
		case j.cancel != nil:
			j.cancel()
		}
	}
	st := &JobStatus{ID: j.id, Kind: j.kind, State: j.state, Result: j.result, Error: j.apiErr}
	j.mu.Unlock()
	return st, nil
}

// reapLocked bounds the retained job set (q.mu held): while over the cap,
// forget the oldest terminal jobs. Live jobs are never forgotten — the cap
// can only be exceeded transiently by a burst of still-queued work, which
// the queue capacity itself bounds.
func (q *jobs) reapLocked() {
	if len(q.byID) <= q.retain {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		j, ok := q.byID[id]
		if !ok {
			continue
		}
		if len(q.byID) > q.retain {
			j.mu.Lock()
			terminal := j.terminalLocked()
			j.mu.Unlock()
			if terminal {
				delete(q.byID, id)
				continue
			}
		}
		kept = append(kept, id)
	}
	q.order = kept
}

// jobKindNames returns the registered kinds, sorted, for error messages.
func jobKindNames() []string {
	names := make([]string, 0, len(jobKinds))
	for name := range jobKinds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// handleJobSubmit is the POST /v1/jobs body handler, run inside the shared
// solveEndpoint lifecycle (method check, drain refusal, body limit). The
// submit reserves an in-flight slot for the whole job lifetime so Drain
// waits for accepted jobs to finish, not just for the submit request.
func (s *Server) handleJobSubmit(r *http.Request, body []byte) (any, *APIError) {
	s.inflight.Add(1)
	j, apiErr := s.jobs.submit(s, body, time.Now())
	if apiErr != nil {
		s.inflight.Done()
		return nil, apiErr
	}
	return j.status(), nil
}

// handleJobByID routes GET (status) and DELETE (cancel) for /v1/jobs/{id}.
// Reads and cancels stay available while draining — collecting results is
// exactly what a draining deployment needs to do.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, errorf(http.StatusNotFound, CodeNotFound, "unknown endpoint %s", r.URL.Path))
		return
	}
	switch r.Method {
	case http.MethodGet:
		st, apiErr := s.jobs.get(id)
		if apiErr != nil {
			s.jobErrs.Inc()
			writeError(w, apiErr)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodDelete:
		st, apiErr := s.jobs.cancelJob(id)
		if apiErr != nil {
			s.jobErrs.Inc()
			writeError(w, apiErr)
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		writeError(w, errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"%s requires GET or DELETE, got %s", r.URL.Path, r.Method))
	}
}
