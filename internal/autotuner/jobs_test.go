package autotuner

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// jobInstances builds a linearly separable 1-D corpus: variant 0 wins below
// the boundary, variant 1 above.
func jobInstances(n int) []Instance {
	out := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		t0, t1 := 1.0, 2.0
		if x > float64(n)/2 {
			t0, t1 = 2.0, 1.0
		}
		out = append(out, Instance{Features: []float64{x}, Times: []float64{t0, t1}})
	}
	return out
}

// TestJobQueueRunsJob: a submitted job trains a model stamped BaseVersion+1
// with zero CreatedAt, distills it, and hands it to Done; Status reads
// running for as long as Done blocks and done only once it returns, so a
// caller that installs the model in Done is never seen done before the
// install.
func TestJobQueueRunsJob(t *testing.T) {
	q := NewJobQueue(2, 4, nil)
	defer q.Close()

	done := make(chan JobStatus, 1)
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	id, err := q.Submit(TuneJob{
		Function:    "f",
		Instances:   jobInstances(12),
		BaseVersion: 4,
		Done: func(st JobStatus) {
			done <- st
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	select {
	case st = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	if st.State != JobDone || st.Model == nil || st.Version != 5 {
		t.Fatalf("status = %+v, want done at version 5", st)
	}
	if got, _ := q.Status(id); got.State != JobRunning {
		t.Fatalf("Status while Done blocks = %+v, want running", got)
	}
	if !st.Model.Meta.CreatedAt.IsZero() {
		t.Fatal("server-trained model has a wall-clock timestamp; artifacts must stay deterministic")
	}
	if st.Model.Compiled == nil {
		t.Fatal("job model carries no compiled program")
	}
	once.Do(func() { close(release) })
	q.Close()
	if got, ok := q.Status(id); !ok || got.State != JobDone || got.Version != 5 {
		t.Fatalf("Status(%s) after Done returned = %+v, %v", id, got, ok)
	}
	if _, ok := q.Status("job-999"); ok {
		t.Fatal("unknown job id resolved")
	}
}

// TestJobQueueStatusKeepsNoModel: once Done has a finished job's model,
// the status the queue retains drops it, so finished jobs do not keep
// their models alive for the life of the queue.
func TestJobQueueStatusKeepsNoModel(t *testing.T) {
	q := NewJobQueue(1, 4, nil)
	var got *JobStatus
	id, err := q.Submit(TuneJob{Function: "f", Instances: jobInstances(12),
		Done: func(st JobStatus) { got = &st }})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	if got == nil || got.Model == nil {
		t.Fatalf("Done got %+v, want the trained model", got)
	}
	if st, _ := q.Status(id); st.State != JobDone || st.Model != nil {
		t.Fatalf("retained status = %+v, want done without a model", st)
	}
}

// TestJobQueueFailure: an untrainable corpus yields JobFailed with an error
// message, not a panic or a silent success.
func TestJobQueueFailure(t *testing.T) {
	q := NewJobQueue(1, 1, nil)
	defer q.Close()
	done := make(chan JobStatus, 1)
	if _, err := q.Submit(TuneJob{Function: "f", Done: func(st JobStatus) { done <- st }}); err != nil {
		t.Fatal(err)
	}
	st := <-done
	if st.State != JobFailed || st.Error == "" || st.Model != nil {
		t.Fatalf("status = %+v, want a failure with a message", st)
	}
}

// TestJobQueueBacklogBound: submissions beyond capacity fail fast with
// ErrQueueFull while a worker is wedged.
func TestJobQueueBacklogBound(t *testing.T) {
	q := NewJobQueue(1, 1, nil)
	defer q.Close()

	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	blocked := make(chan struct{}, 8)
	// Wedge the single worker on the Done callback.
	first := TuneJob{Function: "slow", Instances: jobInstances(8), Done: func(JobStatus) {
		blocked <- struct{}{}
		<-gate
	}}
	wedged, err := q.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	// One more fits the backlog; the next must be rejected.
	backlogged, err := q.Submit(TuneJob{Function: "q1", Instances: jobInstances(8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(TuneJob{Function: "q2", Instances: jobInstances(8)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v, want ErrQueueFull", err)
	}
	// The wedged job stays running until its Done returns; the backlogged
	// one is still queued.
	if st, _ := q.Status(wedged); st.State != JobRunning {
		t.Fatalf("wedged job state = %s, want running", st.State)
	}
	if st, _ := q.Status(backlogged); st.State != JobQueued {
		t.Fatalf("backlogged job state = %s, want queued", st.State)
	}
	once.Do(func() { close(gate) })
}

// TestJobQueueCloseDrains: Close waits for queued work and rejects later
// submissions.
func TestJobQueueCloseDrains(t *testing.T) {
	q := NewJobQueue(2, 8, nil)
	var mu sync.Mutex
	finished := 0
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := q.Submit(TuneJob{Function: "f", Instances: jobInstances(10), Done: func(JobStatus) {
			mu.Lock()
			finished++
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	if finished != 5 {
		t.Fatalf("finished = %d, want 5 after Close", finished)
	}
	if _, err := q.Submit(TuneJob{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after close: %v, want ErrQueueClosed", err)
	}
	for _, id := range ids {
		if st, ok := q.Status(id); !ok || st.State != JobDone {
			t.Fatalf("Status(%s) after Close = %+v, %v, want done", id, st, ok)
		}
	}
}

// TestJobQueueFairShare: with two owners competing, each may hold only its
// capacity/owners share of non-terminal jobs; a job that finishes frees
// share.
func TestJobQueueFairShare(t *testing.T) {
	q := NewJobQueue(1, 8, nil)
	defer q.Close()

	// Wedge the single worker on an ownerless job so submissions stay queued
	// (ownerless jobs opt out of fair-share accounting).
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	blocked := make(chan struct{}, 1)
	if _, err := q.Submit(TuneJob{Function: "wedge", Instances: jobInstances(8), Done: func(JobStatus) {
		blocked <- struct{}{}
		<-gate
	}}); err != nil {
		t.Fatal(err)
	}
	<-blocked

	// Sole owner: acme may fill up to the whole capacity.
	firstDone := make(chan struct{})
	for i := 0; i < 4; i++ {
		job := TuneJob{Function: "f", Owner: "acme", Instances: jobInstances(8)}
		if i == 0 {
			job.Done = func(JobStatus) { close(firstDone) }
		}
		if _, err := q.Submit(job); err != nil {
			t.Fatalf("acme submit %d: %v", i, err)
		}
	}

	// A second owner halves the share: globex (holding 0) is admitted, but
	// acme (holding 4 of share 4) is throttled.
	if _, err := q.Submit(TuneJob{Function: "f", Owner: "globex", Instances: jobInstances(8)}); err != nil {
		t.Fatalf("globex submit: %v", err)
	}
	if _, err := q.Submit(TuneJob{Function: "f", Owner: "acme", Instances: jobInstances(8)}); !errors.Is(err, ErrOwnerThrottled) {
		t.Fatalf("over-share submit: %v, want ErrOwnerThrottled", err)
	}

	// Once one of acme's jobs finishes, acme is back under its share.
	once.Do(func() { close(gate) })
	<-firstDone
	if _, err := q.Submit(TuneJob{Function: "f", Owner: "acme", Instances: jobInstances(8)}); err != nil {
		t.Fatalf("submit after a job finished: %v", err)
	}
}

// TestJobQueueRetainsBoundedFinishedJobs: a queue that runs 5,000 owned
// jobs one at a time keeps at most retainedJobs finished statuses beside
// the jobs in flight. The oldest finished jobs read as unknown, the newest
// reads done, and a job still running past all of them is never forgotten.
func TestJobQueueRetainsBoundedFinishedJobs(t *testing.T) {
	q := NewJobQueue(2, 4, nil)
	defer q.Close()
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	running := make(chan struct{})
	wedged, err := q.Submit(TuneJob{Function: "wedge", Owner: "t", Instances: jobInstances(12), Done: func(JobStatus) {
		close(running)
		<-gate
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	const jobs = 5000
	finished := make(chan struct{})
	var first, last string
	for i := 0; i < jobs; i++ {
		id, err := q.Submit(TuneJob{Function: "f", Owner: "t", Instances: jobInstances(12),
			Done: func(JobStatus) { finished <- struct{}{} }})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		<-finished
		if i == 0 {
			first = id
		}
		last = id
		q.mu.Lock()
		retained, held := len(q.jobs), q.held["t"]
		q.mu.Unlock()
		// In flight: the wedged job, and this one until it publishes.
		if retained > retainedJobs+2 || held > 2 {
			t.Fatalf("after job %d the queue retains %d statuses with %d held, want at most %d and 2",
				i, retained, held, retainedJobs+2)
		}
	}
	if st, ok := q.Status(wedged); !ok || st.State != JobRunning {
		t.Fatalf("wedged job after %d others finished = %+v, %v, want running", jobs, st, ok)
	}
	once.Do(func() { close(gate) })
	q.Close()
	if _, ok := q.Status(first); ok {
		t.Fatalf("first of %d finished jobs still retained", jobs)
	}
	if st, ok := q.Status(last); !ok || st.State != JobDone {
		t.Fatalf("newest job = %+v, %v, want done", st, ok)
	}
	if st, ok := q.Status(wedged); !ok || st.State != JobDone {
		t.Fatalf("wedged job after release = %+v, %v, want done", st, ok)
	}
	if n := len(q.jobs); n > retainedJobs {
		t.Fatalf("queue retains %d statuses after Close, want at most %d", n, retainedJobs)
	}
}
