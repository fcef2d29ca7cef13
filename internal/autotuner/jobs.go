package autotuner

// Job-queue entry point for the tuning daemon: a bounded worker pool that
// trains models from labelled instance corpora in the background. The
// registry server submits one TuneJob per tune request; the queue bounds
// both concurrency (workers) and backlog (capacity), so a tenant cannot
// wedge the daemon by flooding it with tune requests — Submit fails fast
// with ErrQueueFull and the HTTP layer turns that into 429.
//
// Jobs train with the same offline pipeline as nitro-tune (Train over
// labelled Instances, then DistillModel over the rows Train fitted), so a
// server-side retrain is byte-identical to what the CLI would have produced
// from the same corpus: the model Meta carries BaseVersion+1 and a zero
// CreatedAt, keeping artifacts content-addressable.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nitro/internal/ml"
	"nitro/internal/obs/trace"
)

// JobState is the lifecycle of a queued tuning job.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// TuneJob describes one training request.
type TuneJob struct {
	// Function names the tuned function (carried through to the status for
	// observability; the queue itself is function-agnostic).
	Function string
	// Owner names the submitting principal (a tenant, for the registry) for
	// fair-share admission: an owner may hold at most
	// max(1, capacity/activeOwners) jobs that are queued or training, so one
	// noisy tenant cannot monopolize the backlog even when the queue has
	// room. Empty opts out of fair-share accounting.
	Owner string
	// Instances is the labelled corpus (features + per-variant times).
	Instances []Instance
	// Options configures the classifier pipeline, exactly as offline tuning.
	Options TrainOptions
	// BaseVersion is the incumbent model generation; the candidate is
	// stamped BaseVersion+1.
	BaseVersion int
	// Ctx carries the submitting request's provenance — its trace id is
	// stamped onto the job status and every lifecycle log event, so the
	// span tree connects the tune request to the canary it stages. A nil
	// Ctx means "no trace".
	Ctx context.Context
	// Done, when non-nil, is invoked from the worker goroutine once training
	// ends, with the final status and its model. Status keeps reporting the
	// job running until Done returns, so a caller that installs the model in
	// Done is never seen done before the install.
	Done func(JobStatus)
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	Function string   `json:"function"`
	Owner    string   `json:"owner,omitempty"`
	State    JobState `json:"state"`
	// Error holds the failure message when State == JobFailed.
	Error string `json:"error,omitempty"`
	// Trace is the correlation id of the submitting request ("" when the
	// job was submitted without one).
	Trace string `json:"trace,omitempty"`
	// Version is the candidate's stamped generation when State == JobDone.
	Version int `json:"version,omitempty"`
	// TrainAccuracy is the training-set accuracy of the finished candidate.
	TrainAccuracy float64 `json:"train_accuracy,omitempty"`
	// Model is the trained candidate, handed to TuneJob.Done; the status
	// the queue retains never holds it. Not serialized; the server
	// distributes it as a versioned artifact instead.
	Model *ml.Model `json:"-"`
}

var (
	// ErrQueueFull is returned by Submit when the backlog is at capacity.
	ErrQueueFull = errors.New("autotuner: tune job queue is full")
	// ErrQueueClosed is returned by Submit after Close.
	ErrQueueClosed = errors.New("autotuner: tune job queue is closed")
	// ErrOwnerThrottled is returned by Submit when the owner already holds
	// its fair share of the queue.
	ErrOwnerThrottled = errors.New("autotuner: owner at fair-share job limit")
)

// retainedJobs bounds the finished statuses a queue keeps for Status. A
// long-lived daemon tunes without end, so past this many the oldest
// finished job is forgotten as each new one finishes and reads as unknown;
// queued and running jobs are always kept.
const retainedJobs = 1024

// JobQueue runs tuning jobs on a fixed worker pool with a bounded backlog.
type JobQueue struct {
	mu   sync.Mutex
	jobs map[string]*JobStatus
	// finished rings the ids of the retained finished jobs; finishedAt is
	// the slot of the oldest, which the next job to finish replaces.
	finished   [retainedJobs]string
	finishedAt int
	held       map[string]int // owner -> its jobs queued or training
	ch         chan queuedJob
	closed     bool
	next       int64
	capacity   int
	wg         sync.WaitGroup
	log        *trace.Log // nil-safe; lifecycle events only
}

// queuedJob is one backlog entry: the job and the id Submit gave it.
type queuedJob struct {
	id  string
	job TuneJob
}

// NewJobQueue starts a queue with the given worker count (min 1) and
// backlog capacity (min 1). Job queued/start/done/failed transitions are
// emitted on log with the submitting request's trace id; a nil log
// disables the events.
func NewJobQueue(workers, capacity int, log *trace.Log) *JobQueue {
	if workers < 1 {
		workers = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	q := &JobQueue{
		jobs:     make(map[string]*JobStatus),
		held:     make(map[string]int),
		ch:       make(chan queuedJob, capacity),
		capacity: capacity,
		log:      log,
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// fairShareLocked computes the submitting owner's admission verdict: with
// k owners currently holding jobs that are queued or training (the
// submitter included), each may hold max(1, capacity/k). The share shrinks
// as contention grows, so a tenant that filled an idle queue gets throttled
// as soon as a second tenant shows up and the first's backlog drains.
func (q *JobQueue) fairShareLocked(owner string) error {
	if owner == "" {
		return nil
	}
	held := q.held[owner]
	owners := len(q.held)
	if held == 0 {
		owners++
	}
	share := max(1, q.capacity/owners)
	if held >= share {
		return fmt.Errorf("%w: %q holds %d of %d", ErrOwnerThrottled, owner, held, share)
	}
	return nil
}

// Submit enqueues a job and returns its id, or ErrQueueFull /
// ErrQueueClosed / ErrOwnerThrottled.
func (q *JobQueue) Submit(job TuneJob) (string, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", ErrQueueClosed
	}
	if err := q.fairShareLocked(job.Owner); err != nil {
		q.mu.Unlock()
		return "", err
	}
	q.next++
	id := fmt.Sprintf("job-%d", q.next)
	select {
	case q.ch <- queuedJob{id: id, job: job}:
	default:
		q.next--
		q.mu.Unlock()
		return "", ErrQueueFull
	}
	q.jobs[id] = &JobStatus{ID: id, Function: job.Function, Owner: job.Owner,
		State: JobQueued, Trace: trace.From(job.Ctx)}
	if job.Owner != "" {
		q.held[job.Owner]++
	}
	q.mu.Unlock()
	q.log.Event(job.Ctx, "autotuner", "job.queued",
		trace.F("job", id), trace.F("fn", job.Function), trace.F("owner", job.Owner))
	return id, nil
}

// Status returns a snapshot of the job, or false for an unknown id or a
// finished job the queue no longer retains.
func (q *JobQueue) Status(id string) (JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	st, ok := q.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return *st, true
}

// Close stops accepting submissions, drains queued jobs, and waits for the
// workers to finish.
func (q *JobQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.ch)
	q.mu.Unlock()
	q.wg.Wait()
}

func (q *JobQueue) worker() {
	defer q.wg.Done()
	for item := range q.ch {
		id, job := item.id, item.job
		q.mu.Lock()
		q.jobs[id].State = JobRunning
		q.mu.Unlock()

		q.log.Event(job.Ctx, "autotuner", "job.start",
			trace.F("job", id), trace.F("fn", job.Function))
		st := q.run(id, job)
		switch st.State {
		case JobDone:
			q.log.Event(job.Ctx, "autotuner", "job.done", trace.F("job", id),
				trace.F("fn", job.Function), trace.F("version", fmt.Sprint(st.Version)))
		case JobFailed:
			q.log.Error(job.Ctx, "autotuner", "job.failed", trace.F("job", id),
				trace.F("fn", job.Function), trace.F("error", st.Error))
		}

		// Training is over, so the job stops counting against its owner's
		// share before Done runs: an owner never waits on its own install.
		q.mu.Lock()
		if job.Owner != "" {
			q.held[job.Owner]--
			if q.held[job.Owner] == 0 {
				delete(q.held, job.Owner)
			}
		}
		q.mu.Unlock()
		if job.Done != nil {
			job.Done(st)
		}
		// Publish the terminal state only now that Done has acted on it,
		// and without the model: Done had it, and a retained model would
		// live as long as the queue.
		st.Model = nil
		q.mu.Lock()
		*q.jobs[id] = st
		delete(q.jobs, q.finished[q.finishedAt])
		q.finished[q.finishedAt] = id
		q.finishedAt = (q.finishedAt + 1) % retainedJobs
		q.mu.Unlock()
	}
}

func (q *JobQueue) run(id string, job TuneJob) JobStatus {
	st := JobStatus{ID: id, Function: job.Function, Owner: job.Owner, Trace: trace.From(job.Ctx)}
	model, report, err := Train(job.Instances, job.Options)
	if err != nil {
		st.State = JobFailed
		st.Error = err.Error()
		return st
	}
	DistillModel(model, fittedRows(job.Instances))
	// Re-stamp the generation over the incumbent's; CreatedAt stays zero so
	// identical corpora yield byte-identical artifacts.
	model.Meta = &ml.ModelMeta{Version: job.BaseVersion + 1, TrainedOn: len(job.Instances) - report.Skipped}
	st.State = JobDone
	st.Version = model.Version()
	st.TrainAccuracy = report.TrainAccuracy
	st.Model = model
	return st
}
