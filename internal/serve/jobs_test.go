package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roadside/internal/core"
)

// submitJob POSTs one job envelope and decodes the accepted JobStatus.
func submitJob(t *testing.T, url string, kind string, inner []byte) *JobStatus {
	t.Helper()
	status, body := postJSON(t, url+"/v1/jobs",
		mustMarshal(t, JobRequest{Kind: kind, Request: inner}))
	if status != http.StatusOK {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.State != JobQueued && st.State != JobRunning && st.State != JobDone) {
		t.Fatalf("submit returned %+v", st)
	}
	return &st
}

// getJob fetches /v1/jobs/{id} raw.
func getJob(t *testing.T, url, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// awaitJob polls until the job reaches a terminal state and returns it.
func awaitJob(t *testing.T, url, id string) *JobStatus {
	t.Helper()
	var st JobStatus
	waitFor(t, "job "+id+" to finish", func() bool {
		status, body := getJob(t, url, id)
		if status != http.StatusOK {
			t.Fatalf("get %s: status %d: %s", id, status, body)
		}
		st = JobStatus{}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st.State == JobDone || st.State == JobFailed || st.State == JobCanceled
	})
	return &st
}

// TestJobLifecycle pins the happy path: submit a place job, poll to done,
// and check the result is bit-identical to the synchronous answer.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inner := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"})

	st := submitJob(t, ts.URL, "place", inner)
	if !strings.HasPrefix(st.ID, "j") {
		t.Errorf("job id %q lacks the unprefixed-server j# shape", st.ID)
	}
	final := awaitJob(t, ts.URL, st.ID)
	if final.State != JobDone || final.Error != nil {
		t.Fatalf("job finished %+v", final)
	}

	// The async result must match the synchronous endpoint bit-for-bit.
	status, body := postJSON(t, ts.URL+"/v1/place", inner)
	if status != http.StatusOK {
		t.Fatalf("sync place: status %d: %s", status, body)
	}
	var want PlaceResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	resultJSON, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	var got PlaceResponse
	if err := json.Unmarshal(resultJSON, &got); err != nil {
		t.Fatalf("job result is not a PlaceResponse: %v (%s)", err, resultJSON)
	}
	if err := core.SamePlacement(placeOf(&want), placeOf(&got)); err != nil {
		t.Fatalf("job vs sync: %v", err)
	}
}

// TestJobErrorPaths is the table battery over every jobs failure mode:
// submit-time rejections, unknown and expired lookups, and bad methods.
func TestJobErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	placeBody := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2})
	cases := []struct {
		name, method, path string
		body               []byte
		wantStatus         int
		wantCode           string
	}{
		{"malformed envelope", "POST", "/v1/jobs", []byte(`{"kind":`),
			http.StatusBadRequest, CodeBadJSON},
		{"missing kind", "POST", "/v1/jobs",
			mustMarshal(t, JobRequest{Request: placeBody}),
			http.StatusUnprocessableEntity, CodeBadJob},
		{"unknown kind", "POST", "/v1/jobs",
			mustMarshal(t, JobRequest{Kind: "detour", Request: placeBody}),
			http.StatusUnprocessableEntity, CodeBadJob},
		{"missing inner request", "POST", "/v1/jobs",
			mustMarshal(t, JobRequest{Kind: "place"}),
			http.StatusUnprocessableEntity, CodeBadJob},
		{"malformed inner request", "POST", "/v1/jobs",
			mustMarshal(t, JobRequest{Kind: "place", Request: []byte(`{"k":0}`)}),
			http.StatusUnprocessableEntity, CodeBadBudget},
		{"malformed inner batch", "POST", "/v1/jobs",
			mustMarshal(t, JobRequest{Kind: "batch", Request: []byte(`{"items":[]}`)}),
			http.StatusUnprocessableEntity, CodeBadBatch},
		{"unknown job id", "GET", "/v1/jobs/j999999", nil,
			http.StatusNotFound, CodeUnknownJob},
		{"cancel unknown job", "DELETE", "/v1/jobs/j999999", nil,
			http.StatusNotFound, CodeUnknownJob},
		{"bad method on job", "PUT", "/v1/jobs/j1", nil,
			http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"bad method on submit", "GET", "/v1/jobs", nil,
			http.StatusMethodNotAllowed, CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not the uniform shape: %v (%s)", err, body)
			}
			if er.Err.Code != tc.wantCode {
				t.Errorf("error code %q, want %q (message %q)", er.Err.Code, tc.wantCode, er.Err.Message)
			}
		})
	}
}

// TestJobQueueFullBackpressure pins the backpressure contract: with the
// worker stalled on a slow job and the queue full, further submits answer
// 429 queue_full with a Retry-After header — they are refused, not
// silently queued or dropped.
func TestJobQueueFullBackpressure(t *testing.T) {
	// A test-only job kind that blocks its worker until released, so the
	// queue fills deterministically. The registry entry is removed after
	// the server has fully drained.
	release := make(chan struct{})
	jobKinds["stall"] = func(s *Server, raw []byte) (jobRun, *APIError) {
		return func(ctx context.Context) (any, *APIError) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return map[string]bool{"stalled": true}, nil
		}, nil
	}
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueue: 1})
	stall := func() (int, []byte) {
		return postJSON(t, ts.URL+"/v1/jobs",
			mustMarshal(t, JobRequest{Kind: "stall", Request: []byte(`{}`)}))
	}

	// Job 1 occupies the only worker; poll until it is running so job 2
	// lands in the queue rather than a worker.
	status, body := stall()
	if status != http.StatusOK {
		t.Fatalf("stall 1: status %d: %s", status, body)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker to pick up the stall job", func() bool {
		_, data := getJob(t, ts.URL, first.ID)
		var st JobStatus
		return json.Unmarshal(data, &st) == nil && st.State == JobRunning
	})
	if status, body = stall(); status != http.StatusOK {
		t.Fatalf("stall 2: status %d: %s", status, body)
	}

	// The lane is full: one running, one queued. The next submit must be
	// refused with 429 queue_full and a Retry-After hint.
	status, body = stall()
	if status != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Err.Code != CodeQueueFull {
		t.Fatalf("refusal body %s (err %v), want code queue_full", body, err)
	}
	if rejected := s.Metrics().Counter("serve.jobs.rejected").Value(); rejected != 1 {
		t.Errorf("serve.jobs.rejected = %d, want 1", rejected)
	}

	// Retry-After must parse as a positive integer number of seconds.
	// (postJSON consumed the header check; re-issue to inspect headers.)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader(mustMarshal(t, JobRequest{Kind: "stall", Request: []byte(`{}`)})))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fourth submit: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}

	// Release the stall: accepted jobs finish, the refused ones leaked no
	// in-flight reservation, and Drain returns promptly.
	close(release)
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung: a refused submit leaked an in-flight reservation")
	}
	delete(jobKinds, "stall")
}

// TestJobCancel pins both cancellation windows: a queued job goes terminal
// without running, and cancel is idempotent on terminal jobs.
func TestJobCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, JobQueue: 8})
	inner := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"})

	// Fill the single worker so follow-up jobs sit in the queue long
	// enough to be cancelled there.
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = submitJob(t, ts.URL, "place", inner).ID
	}
	victim := ids[len(ids)-1]
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	final := awaitJob(t, ts.URL, victim)
	if final.State != JobCanceled && final.State != JobDone {
		t.Fatalf("cancelled job finished as %q", final.State)
	}
	// The cancel raced job completion; the usual outcome with a stalled
	// worker is canceled-at-pop. Either way a second cancel is a no-op.
	resp2, err := http.DefaultClient.Do(req.Clone(t.Context()))
	if err != nil {
		t.Fatal(err)
	}
	var again JobStatus
	err = json.NewDecoder(resp2.Body).Decode(&again)
	if cerr := resp2.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if again.State != final.State {
		t.Errorf("second cancel moved state %q -> %q", final.State, again.State)
	}
	// The rest of the queue drains normally around the cancelled job.
	for _, id := range ids[:len(ids)-1] {
		if st := awaitJob(t, ts.URL, id); st.State != JobDone {
			t.Errorf("job %s finished as %+v", id, st)
		}
	}
}

// TestJobCancelQueuedImmediate pins the queued-cancel window on a
// backed-up queue: DELETE returns the job already terminal — done closes
// and the retention TTL starts at cancel time, not whenever a worker
// finally reaches the tombstone.
func TestJobCancelQueuedImmediate(t *testing.T) {
	release := make(chan struct{})
	jobKinds["stallq"] = func(s *Server, raw []byte) (jobRun, *APIError) {
		return func(ctx context.Context) (any, *APIError) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return map[string]bool{"stalled": true}, nil
		}, nil
	}
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueue: 8})

	// The blocker occupies the lone worker, so the victim is provably
	// still queued when the cancel lands.
	blocker := submitJob(t, ts.URL, "stallq", []byte(`{}`))
	waitFor(t, "worker to pick up the blocker", func() bool {
		_, data := getJob(t, ts.URL, blocker.ID)
		var st JobStatus
		return json.Unmarshal(data, &st) == nil && st.State == JobRunning
	})
	victim := submitJob(t, ts.URL, "stallq", []byte(`{}`))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != JobCanceled {
		t.Fatalf("cancel of a queued job: status %d state %q, want 200 %q", resp.StatusCode, st.State, JobCanceled)
	}
	// Status polls agree without waiting for a worker pop.
	_, body := getJob(t, ts.URL, victim.ID)
	st = JobStatus{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobCanceled {
		t.Fatalf("queued-canceled job polls as %q, want %q", st.State, JobCanceled)
	}
	if n := s.Metrics().Counter("serve.jobs.canceled").Value(); n != 1 {
		t.Errorf("serve.jobs.canceled = %d, want 1", n)
	}

	// The worker tolerates the already-terminal job at pop: releasing the
	// blocker lets the queue drain and the victim's in-flight slot go.
	close(release)
	if final := awaitJob(t, ts.URL, blocker.ID); final.State != JobDone {
		t.Fatalf("blocker finished %+v", final)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung: a queued-cancel leaked its in-flight reservation")
	}
	delete(jobKinds, "stallq")
}

// TestJobResultTTL pins retention: after the TTL lapses the job's result
// is released and GET answers 410 job_expired — distinct from the 404 an
// unknown id gets.
func TestJobResultTTL(t *testing.T) {
	s, ts := newTestServer(t, Config{JobTTL: time.Minute})
	inner := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 1})
	st := submitJob(t, ts.URL, "place", inner)
	if final := awaitJob(t, ts.URL, st.ID); final.State != JobDone {
		t.Fatalf("job finished %+v", final)
	}

	// Advance the job clock past the TTL instead of sleeping.
	s.jobs.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	status, body := getJob(t, ts.URL, st.ID)
	if status != http.StatusGone {
		t.Fatalf("post-TTL get: status %d, want 410 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Err.Code != CodeJobExpired {
		t.Fatalf("post-TTL body %s (err %v), want job_expired", body, err)
	}
	if expired := s.Metrics().Counter("serve.jobs.expired").Value(); expired != 1 {
		t.Errorf("serve.jobs.expired = %d, want 1", expired)
	}

	// Repeat polls of the expired id keep answering 410 but count the
	// expiry only once — one impatient client must not inflate the metric.
	for i := 0; i < 3; i++ {
		if status, body := getJob(t, ts.URL, st.ID); status != http.StatusGone {
			t.Fatalf("repeat post-TTL get %d: status %d, want 410 (%s)", i, status, body)
		}
	}
	if expired := s.Metrics().Counter("serve.jobs.expired").Value(); expired != 1 {
		t.Errorf("serve.jobs.expired after repeat polls = %d, want 1", expired)
	}
}

// TestJobRetentionReapsTombstones pins the retention cap: once terminal
// jobs exceed JobRetain the oldest are forgotten entirely (404), while
// newer ones remain queryable.
func TestJobRetentionReapsTombstones(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.jobs.retain = 3
	inner := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 1})
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = submitJob(t, ts.URL, "place", inner).ID
		if st := awaitJob(t, ts.URL, ids[i]); st.State != JobDone {
			t.Fatalf("job %d finished %+v", i, st)
		}
	}
	// Submitting one more triggers the reap of the oldest terminal jobs.
	last := submitJob(t, ts.URL, "place", inner)
	awaitJob(t, ts.URL, last.ID)
	status, _ := getJob(t, ts.URL, ids[0])
	if status != http.StatusNotFound {
		t.Errorf("oldest reaped job: status %d, want 404", status)
	}
	if status, _ := getJob(t, ts.URL, last.ID); status != http.StatusOK {
		t.Errorf("newest job: status %d, want 200", status)
	}
}

// TestConcurrentJobClientsCoalesce is the jobs twin of the /v1/place race
// test: 64 clients submit jobs over 8 distinct problems; every job's
// result must be bit-identical to its single-threaded oracle and the
// engine cache must have built each problem exactly once. Run under
// -race this also proves the jobs lane adds no data races.
func TestConcurrentJobClientsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("64-client stress in -short mode")
	}
	const (
		clients   = 64
		nProblems = 8
	)
	s, ts := newTestServer(t, Config{JobWorkers: 4, JobQueue: clients * nProblems})
	problems := raceProblems(t, nProblems)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < nProblems; i++ {
				p := &problems[(c+i)%nProblems]
				body := mustMarshal(t, JobRequest{Kind: "place", Request: p.body})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d submit: status %d: %s", c, resp.StatusCode, data)
					return
				}
				var st JobStatus
				if err := json.Unmarshal(data, &st); err != nil {
					errs <- err
					return
				}
				if err := awaitAndCheckJob(ts.URL, st.ID, p); err != nil {
					errs <- fmt.Errorf("client %d job %s: %w", c, st.ID, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if builds := s.Metrics().Counter("serve.engine.builds").Value(); builds != nProblems {
		t.Errorf("serve.engine.builds = %d, want exactly %d", builds, nProblems)
	}
}

// awaitAndCheckJob polls a job to completion and verifies its PlaceResponse
// against the problem's single-threaded oracle.
func awaitAndCheckJob(url, id string, p *raceProblem) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		switch st.State {
		case JobDone:
			resultJSON, err := json.Marshal(st.Result)
			if err != nil {
				return err
			}
			var got PlaceResponse
			if err := json.Unmarshal(resultJSON, &got); err != nil {
				return err
			}
			if got.Digest != p.digest {
				return fmt.Errorf("digest %q, want %q", got.Digest, p.digest)
			}
			return core.SamePlacement(p.want, placeOf(&got))
		case JobFailed, JobCanceled:
			return fmt.Errorf("job finished as %q: %+v", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %q after 60s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}
