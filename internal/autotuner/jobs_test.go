package autotuner

import (
	"errors"
	"sync"
	"sync/atomic"
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
// with zero CreatedAt, distills it, and reports done.
func TestJobQueueRunsJob(t *testing.T) {
	q := NewJobQueue(2, 4)
	defer q.Close()

	done := make(chan JobStatus, 1)
	id, err := q.Submit(TuneJob{
		Function:    "f",
		Instances:   jobInstances(12),
		BaseVersion: 4,
		Done:        func(st JobStatus) { done <- st },
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
	if !st.Model.Meta.CreatedAt.IsZero() {
		t.Fatal("server-trained model has a wall-clock timestamp; artifacts must stay deterministic")
	}
	if st.Model.Compiled == nil {
		t.Fatal("job model carries no compiled program")
	}
	if got, ok := q.Status(id); !ok || got.State != JobDone {
		t.Fatalf("Status(%s) = %+v, %v", id, got, ok)
	}
	if _, ok := q.Status("job-999"); ok {
		t.Fatal("unknown job id resolved")
	}
}

// TestJobQueueFailure: an untrainable corpus yields JobFailed with an error
// message, not a panic or a silent success.
func TestJobQueueFailure(t *testing.T) {
	q := NewJobQueue(1, 1)
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
	q := NewJobQueue(1, 1)
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
	if _, err := q.Submit(first); err != nil {
		t.Fatal(err)
	}
	<-blocked
	// One more fits the backlog; the next must be rejected.
	if _, err := q.Submit(TuneJob{Function: "q1", Instances: jobInstances(8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(TuneJob{Function: "q2", Instances: jobInstances(8)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v, want ErrQueueFull", err)
	}
	// The wedged job already reached a terminal state; the backlogged one is
	// still pending.
	if p := q.Pending(); p != 1 {
		t.Fatalf("pending = %d, want 1", p)
	}
	once.Do(func() { close(gate) })
}

// TestJobQueueCloseDrains: Close waits for queued work and rejects later
// submissions.
func TestJobQueueCloseDrains(t *testing.T) {
	q := NewJobQueue(2, 8)
	var mu sync.Mutex
	finished := 0
	for i := 0; i < 5; i++ {
		_, err := q.Submit(TuneJob{Function: "f", Instances: jobInstances(10), Done: func(JobStatus) {
			mu.Lock()
			finished++
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
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
	if got := q.Statuses(); len(got) != 5 {
		t.Fatalf("statuses = %d entries, want 5", len(got))
	}
}

// TestJobQueueFairShare: with two owners competing, each may hold only its
// capacity/owners share of non-terminal jobs; cancellation frees share.
func TestJobQueueFairShare(t *testing.T) {
	q := NewJobQueue(1, 8)
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
	var acmeIDs []string
	for i := 0; i < 4; i++ {
		id, err := q.Submit(TuneJob{Function: "f", Owner: "acme", Instances: jobInstances(8)})
		if err != nil {
			t.Fatalf("acme submit %d: %v", i, err)
		}
		acmeIDs = append(acmeIDs, id)
	}

	// A second owner halves the share: globex (holding 0) is admitted, but
	// acme (holding 4 of share 4) is throttled.
	if _, err := q.Submit(TuneJob{Function: "f", Owner: "globex", Instances: jobInstances(8)}); err != nil {
		t.Fatalf("globex submit: %v", err)
	}
	if _, err := q.Submit(TuneJob{Function: "f", Owner: "acme", Instances: jobInstances(8)}); !errors.Is(err, ErrOwnerThrottled) {
		t.Fatalf("over-share submit: %v, want ErrOwnerThrottled", err)
	}

	// Withdrawing one queued job releases share immediately.
	if err := q.Cancel(acmeIDs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(TuneJob{Function: "f", Owner: "acme", Instances: jobInstances(8)}); err != nil {
		t.Fatalf("post-cancel submit: %v", err)
	}
	once.Do(func() { close(gate) })
}

// TestJobQueueCancel: only queued jobs can be withdrawn; the canceled
// terminal state fires Done exactly as a worker would, and the worker later
// skips the tombstone when it drains the channel.
func TestJobQueueCancel(t *testing.T) {
	q := NewJobQueue(1, 8)

	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	blocked := make(chan struct{}, 1)
	wedgeID, err := q.Submit(TuneJob{Function: "wedge", Instances: jobInstances(8), Done: func(JobStatus) {
		blocked <- struct{}{}
		<-gate
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-blocked

	done := make(chan JobStatus, 1)
	id, err := q.Submit(TuneJob{Function: "victim", Owner: "acme", Instances: jobInstances(8), Done: func(st JobStatus) {
		done <- st
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := <-done
	if st.State != JobCanceled || st.ID != id || st.Owner != "acme" {
		t.Fatalf("canceled status = %+v", st)
	}
	if got, ok := q.Status(id); !ok || got.State != JobCanceled {
		t.Fatalf("Status(%s) = %+v, %v, want canceled", id, got, ok)
	}

	// Already-terminal and unknown ids are rejected.
	if err := q.Cancel(id); !errors.Is(err, ErrNotCancelable) {
		t.Fatalf("double cancel: %v, want ErrNotCancelable", err)
	}
	if err := q.Cancel(wedgeID); !errors.Is(err, ErrNotCancelable) {
		t.Fatalf("cancel of started job: %v, want ErrNotCancelable", err)
	}
	if err := q.Cancel("job-999"); err == nil || errors.Is(err, ErrNotCancelable) {
		t.Fatalf("cancel of unknown job: %v, want a distinct error", err)
	}

	// The worker drains the tombstone without resurrecting it.
	once.Do(func() { close(gate) })
	q.Close()
	if got, _ := q.Status(id); got.State != JobCanceled {
		t.Fatalf("state after drain = %s, want canceled", got.State)
	}
}

// TestJobQueueCancelRace: under concurrent cancellation, every job fires
// Done exactly once, and the terminal state is visible through Status
// before the callback runs — whether a worker or Cancel got there first.
func TestJobQueueCancelRace(t *testing.T) {
	q := NewJobQueue(2, 32)

	const jobs = 16
	var fired atomic.Int64
	var violations atomic.Int64
	ids := make(chan string, jobs)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		id, err := q.Submit(TuneJob{Function: "f", Owner: "", Instances: jobInstances(8), Done: func(st JobStatus) {
			defer wg.Done()
			fired.Add(1)
			if got, ok := q.Status(st.ID); !ok || !got.State.Terminal() {
				violations.Add(1)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids <- id
	}
	close(ids)

	// Race the workers for every pending entry; losers get ErrNotCancelable.
	var cancelWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		cancelWG.Add(1)
		go func() {
			defer cancelWG.Done()
			for id := range ids {
				if err := q.Cancel(id); err != nil && !errors.Is(err, ErrNotCancelable) {
					t.Errorf("cancel %s: %v", id, err)
				}
			}
		}()
	}
	cancelWG.Wait()
	wg.Wait()
	q.Close()

	if got := fired.Load(); got != jobs {
		t.Fatalf("Done fired %d times, want exactly %d", got, jobs)
	}
	if got := violations.Load(); got != 0 {
		t.Fatalf("%d callbacks observed a non-terminal Status", got)
	}
	for _, st := range q.Statuses() {
		if !st.State.Terminal() {
			t.Fatalf("job %s left in state %s", st.ID, st.State)
		}
	}
}
