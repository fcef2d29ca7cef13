package server

// Route-level tests against the assembled daemon handler: authentication
// and tenant isolation, registration validation, artifact preconditions
// (ETag / If-None-Match / If-Match), observation quotas, the tune job flow,
// and a -race stress of concurrent pulls during hot-swap publishes.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/online"
)

func testTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "acme", Token: "tok-acme"},
		{Name: "globex", Token: "tok-globex"},
	}
}

func newTestDaemon(t *testing.T, mutate func(*Config)) (*Daemon, *httptest.Server) {
	t.Helper()
	cfg := Config{Registry: RegistryConfig{Tenants: testTenants()}}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		hs.Close()
		d.Registry().Close()
	})
	return d, hs
}

func req(t *testing.T, hs *httptest.Server, method, path, token string, body []byte, headers map[string]string) *http.Response {
	t.Helper()
	r, err := http.NewRequest(method, hs.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range headers {
		r.Header.Set(k, v)
	}
	resp, err := hs.Client().Do(r)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func bodyOf(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustStatus(t *testing.T, resp *http.Response, want int) []byte {
	t.Helper()
	data := bodyOf(t, resp)
	if resp.StatusCode != want {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, data)
	}
	return data
}

func testSpec() FunctionSpec {
	return FunctionSpec{Name: "sort", Features: []string{"n"}, Variants: []string{"small", "large"}, Default: 0}
}

func specBody(t *testing.T, spec FunctionSpec) []byte {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// boundaryArtifact trains a 1-feature/2-class model (class 1 above the
// boundary) and returns its artifact bytes.
func boundaryArtifact(t *testing.T, boundary float64) []byte {
	t.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x < 10; x++ {
		label := 0
		if x > boundary {
			label = 1
		}
		ds.Append([]float64{x}, label)
	}
	svm := ml.NewSVM(ml.LinearKernel{}, 1)
	if err := svm.Fit(ds); err != nil {
		t.Fatal(err)
	}
	data, _, err := ml.EncodeArtifact(&ml.Model{Classifier: svm})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// removedKindArtifacts returns, by kind, a 1-feature 2-class artifact of
// each removed model kind in the JSON form older releases wrote: a kNN, a
// tree and a logistic model splitting at 4.5, and an "ensemble" envelope
// whose only member is boundaryArtifact's SVM in its JSON form.
func removedKindArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	svm, err := ml.UnmarshalModel(boundaryArtifact(t, 4.5))
	if err != nil {
		t.Fatal(err)
	}
	member, err := ml.MarshalModel(svm)
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := json.Marshal(map[string]any{"kind": "ensemble", "ensemble": map[string]any{
		"classes": []int{0, 1}, "weights": []float64{1},
		"members": []json.RawMessage{member}}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"ensemble": ensemble,
		"knn":      []byte(`{"kind":"knn","knn":{"k":1,"train":{"X":[[0],[9]],"Y":[0,1]},"classes":[0,1]}}`),
		"tree": []byte(`{"kind":"tree","tree":{"max_depth":1,"min_leaf":1,"root":{"feature":0,"threshold":4.5,` +
			`"left":{"counts":[1,0]},"right":{"counts":[0,1]}},"classes":[0,1]}}`),
		"logistic": []byte(`{"kind":"logistic","logistic":{"lr":0.5,"l2":0,"iters":1,"w":[[-1,4.5],[1,-4.5]],"classes":[0,1]}}`),
	}
}

func TestAuthAndTenantIsolation(t *testing.T) {
	_, hs := newTestDaemon(t, nil)

	// No token and a bad token are both 401.
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions", "", nil, nil), http.StatusUnauthorized)
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions", "wrong", nil, nil), http.StatusUnauthorized)

	// acme registers a function; globex cannot see it.
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort", "tok-acme", nil, nil), http.StatusOK)
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort", "tok-globex", nil, nil), http.StatusNotFound)
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/deployment", "tok-globex", nil, nil), http.StatusNotFound)
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-globex", nil, nil), http.StatusNotFound)

	// Same name in the other tenant is an independent namespace.
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-globex", specBody(t, testSpec()), nil), http.StatusCreated)
	data := mustStatus(t, req(t, hs, "GET", "/api/v1/functions", "tok-globex", nil, nil), http.StatusOK)
	if !strings.Contains(string(data), `"sort"`) {
		t.Fatalf("globex listing missing its own function: %s", data)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, hs := newTestDaemon(t, nil)

	// Malformed JSON and structurally invalid specs are 400.
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", []byte(`{"name":`), nil), http.StatusBadRequest)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", []byte(`{"name":"x","unknown_field":1}`), nil), http.StatusBadRequest)
	bad := testSpec()
	bad.Variants = []string{"only"}
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, bad), nil), http.StatusBadRequest)
	bad = testSpec()
	bad.Default = 5
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, bad), nil), http.StatusBadRequest)
	bad = testSpec()
	bad.Name = "../escape"
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, bad), nil), http.StatusBadRequest)

	// Re-registering the identical spec is idempotent; a changed spec is a
	// conflict.
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	changed := testSpec()
	changed.Features = []string{"n", "sortedness"}
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, changed), nil), http.StatusConflict)
}

func TestFunctionQuota(t *testing.T) {
	_, hs := newTestDaemon(t, func(cfg *Config) {
		cfg.Registry.Tenants = []TenantConfig{{Name: "acme", Token: "tok-acme", Quotas: Quotas{MaxFunctions: 1}}}
	})
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	second := testSpec()
	second.Name = "other"
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, second), nil), http.StatusTooManyRequests)
}

func TestModelPullPushPreconditions(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)

	// No model yet: pull is 404, If-Match=* push is 412.
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil), http.StatusNotFound)
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 4.5),
		map[string]string{"If-Match": "*"}), http.StatusPreconditionFailed)

	// Unconditional first push becomes stable v1.
	data := mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 4.5), nil), http.StatusCreated)
	var dep Deployment
	if err := json.Unmarshal(data, &dep); err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 1 || dep.Canary != nil || dep.LastDecision != DecisionPromoted {
		t.Fatalf("first push deployment = %+v, want direct promotion to v1", dep)
	}

	// Pull carries a strong ETag; If-None-Match revalidation is a 304.
	resp := req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil)
	pulled := mustStatus(t, resp, http.StatusOK)
	etag := resp.Header.Get("ETag")
	if etag == "" || ml.ETagOf(pulled) != etag {
		t.Fatalf("pull etag %q does not match body hash", etag)
	}
	if got := resp.Header.Get("X-Nitro-Model-Version"); got != "1" {
		t.Fatalf("pulled version header %q, want 1", got)
	}
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil,
		map[string]string{"If-None-Match": etag}), http.StatusNotModified)
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/model?version=99", "tok-acme", nil, nil), http.StatusNotFound)
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/model?version=bogus", "tok-acme", nil, nil), http.StatusBadRequest)

	// A stale If-Match loses; the current ETag wins and stages a canary
	// (stable already exists). Garbage bodies are 400.
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 6.5),
		map[string]string{"If-Match": `"sha256-stale"`}), http.StatusPreconditionFailed)
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", []byte("not a model"), nil), http.StatusBadRequest)
	// So is an artifact of a removed kind, with an error that names the kind
	// and the removal; the canary below is still v2, so none stored anything.
	for kind, data := range removedKindArtifacts(t) {
		body := mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", data, nil), http.StatusBadRequest)
		if !strings.Contains(string(body), "removed") || !strings.Contains(string(body), kind) {
			t.Errorf("%s artifact rejection %q does not name the kind and the removal", kind, body)
		}
	}
	data = mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 6.5),
		map[string]string{"If-Match": etag}), http.StatusCreated)
	if err := json.Unmarshal(data, &dep); err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 1 || dep.Canary == nil || dep.Canary.Version != 2 {
		t.Fatalf("second push deployment = %+v, want canary v2 over stable v1", dep)
	}
}

func observationsBatch(t *testing.T, n int, predicted int) []byte {
	t.Helper()
	samples := make([]online.RemoteSample, n)
	for i := range samples {
		x := float64(i % 10)
		times := []float64{1, 2}
		if x > 4.5 {
			times = []float64{2, 1}
		}
		samples[i] = online.RemoteSample{Features: []float64{x}, Times: times, Predicted: predicted}
	}
	data, err := json.Marshal(map[string]any{"samples": samples})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestObservationValidationAndRateLimit(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	advance := func(d time.Duration) {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(d)
	}
	_, hs := newTestDaemon(t, func(cfg *Config) {
		cfg.Registry.Tenants = []TenantConfig{
			{Name: "acme", Token: "tok-acme", Quotas: Quotas{SamplesPerSec: 10, SampleBurst: 20}},
		}
		cfg.Registry.Clock = func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return now
		}
	})
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)

	obsPath := "/api/v1/functions/sort/observations"
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", []byte(`{"samples":`), nil), http.StatusBadRequest)
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", []byte(`{"samples":[]}`), nil), http.StatusBadRequest)
	// Shape mismatch: 2 features registered as 1.
	badShape, _ := json.Marshal(map[string]any{"samples": []online.RemoteSample{
		{Features: []float64{1, 2}, Times: []float64{1, 2}, Predicted: 0}}})
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", badShape, nil), http.StatusBadRequest)

	// The burst admits 20 samples; the next batch at the same instant is
	// rate-limited, and advancing the clock refills the bucket.
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", observationsBatch(t, 20, 0), nil), http.StatusAccepted)
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", observationsBatch(t, 5, 0), nil), http.StatusTooManyRequests)
	advance(2 * time.Second) // +20 tokens
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", observationsBatch(t, 5, 0), nil), http.StatusAccepted)
}

func TestTuneJobFlow(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)

	// Tuning an empty corpus is a 400; jobs need observations first.
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/tune", "tok-acme", nil, nil), http.StatusBadRequest)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/observations", "tok-acme", observationsBatch(t, 40, -1), nil), http.StatusAccepted)

	data := mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/tune", "tok-acme", nil, nil), http.StatusAccepted)
	var tuneResp struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(data, &tuneResp); err != nil || tuneResp.Job == "" {
		t.Fatalf("tune response %s: %v", data, err)
	}

	// Jobs are tenant-scoped.
	mustStatus(t, req(t, hs, "GET", "/api/v1/jobs/"+tuneResp.Job, "tok-globex", nil, nil), http.StatusNotFound)

	var st autotuner.JobStatus
	deadline := time.Now().Add(15 * time.Second)
	for {
		data := mustStatus(t, req(t, hs, "GET", "/api/v1/jobs/"+tuneResp.Job, "tok-acme", nil, nil), http.StatusOK)
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != autotuner.JobDone || st.Version != 1 {
		t.Fatalf("job status = %+v, want done at v1", st)
	}

	// First-ever version promotes directly to stable.
	data = mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/deployment", "tok-acme", nil, nil), http.StatusOK)
	var dep Deployment
	if err := json.Unmarshal(data, &dep); err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 1 || dep.Canary != nil {
		t.Fatalf("deployment = %+v, want stable v1, no canary", dep)
	}

	// A scrape after this traffic passes the lint and counts it. The
	// deployment read above saw the install, which counts the finished tune
	// under the same lock.
	bodyOf(t, req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil))
	text := string(mustStatus(t, req(t, hs, "GET", "/metrics", "", nil, nil), http.StatusOK))
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("metrics lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"nitro_server_observations_total 40\n",
		"nitro_server_tune_jobs_done_total 1\n",
		"nitro_server_artifact_pulls_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestPendingJobQuota wedges the single tune worker, fills the backlog with
// one pending job, and verifies the tenant's MaxPendingJobs rejects the
// next submission with 429.
func TestPendingJobQuota(t *testing.T) {
	d, hs := newTestDaemon(t, func(cfg *Config) {
		cfg.Registry.Tenants = []TenantConfig{
			{Name: "acme", Token: "tok-acme", Quotas: Quotas{MaxPendingJobs: 1}},
		}
		cfg.Registry.Workers = 1
		cfg.Registry.QueueCapacity = 4
	})
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/observations", "tok-acme", observationsBatch(t, 10, -1), nil), http.StatusAccepted)

	// Wedge the worker with a job submitted outside the registry.
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	blocked := make(chan struct{})
	if _, err := d.Registry().jobs.Submit(autotuner.TuneJob{Function: "wedge", Done: func(autotuner.JobStatus) {
		close(blocked)
		<-gate
	}}); err != nil {
		t.Fatal(err)
	}
	<-blocked

	mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/tune", "tok-acme", nil, nil), http.StatusAccepted)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/tune", "tok-acme", nil, nil), http.StatusTooManyRequests)
	once.Do(func() { close(gate) })
}

// TestConcurrentPullsDuringPublish races artifact pulls and deployment
// reads against a publisher that hot-swaps new versions; every pulled body
// must hash to its own ETag (no torn or stale-mixed responses).
func TestConcurrentPullsDuringPublish(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 4.5), nil), http.StatusCreated)

	stop := make(chan struct{})
	var pubWG, pullWG sync.WaitGroup
	pubWG.Add(1)
	go func() { // publisher: keeps staging new versions
		defer pubWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			boundary := 2.5 + float64(i%5)
			resp := req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, boundary), nil)
			bodyOf(t, resp)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("publish %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		pullWG.Add(1)
		go func() {
			defer pullWG.Done()
			for i := 0; i < 50; i++ {
				resp := req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil)
				body := bodyOf(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("pull: status %d: %s", resp.StatusCode, body)
					return
				}
				if etag := resp.Header.Get("ETag"); ml.ETagOf(body) != etag {
					t.Errorf("pull %d: body does not hash to its etag", i)
					return
				}
				if _, err := ml.DecodeArtifact(body, resp.Header.Get("ETag")); err != nil {
					t.Errorf("pull %d: %v", i, err)
					return
				}
			}
		}()
	}
	// Let the pullers finish, then stop the publisher.
	done := make(chan struct{})
	go func() { pullWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress did not finish")
	}
	close(stop)
	pubWG.Wait()
}

// TestMetricsSurface: the daemon handler serves the telemetry routes next
// to the API, and the exposition passes the repo's Prometheus lint.
func TestMetricsSurface(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)

	resp := req(t, hs, "GET", "/metrics", "", nil, nil)
	text := string(mustStatus(t, resp, http.StatusOK))
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("metrics lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"nitro_server_requests_total", "nitro_server_functions 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	mustStatus(t, req(t, hs, "GET", "/healthz", "", nil, nil), http.StatusOK)
}

// TestPersistenceReload: artifacts and deployment pointers survive a daemon
// restart from DataDir, and the journal resumes an in-flight canary at its
// recorded gate.
func TestPersistenceReload(t *testing.T) {
	t.Run("journal resumes canary", func(t *testing.T) {
		dir := t.TempDir()
		mutate := func(cfg *Config) { cfg.Registry.DataDir = dir }

		_, hs := newTestDaemon(t, mutate)
		mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
		mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 4.5), nil), http.StatusCreated)
		resp := req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil)
		first := mustStatus(t, resp, http.StatusOK)
		etag := resp.Header.Get("ETag")
		// Stage (but never settle) a canary v2.
		mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 6.5), nil), http.StatusCreated)
		hs.Close()

		_, hs2 := newTestDaemon(t, mutate)
		resp = req(t, hs2, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil)
		reloaded := mustStatus(t, resp, http.StatusOK)
		if !bytes.Equal(first, reloaded) || resp.Header.Get("ETag") != etag {
			t.Fatal("reloaded stable artifact differs from the original")
		}
		data := mustStatus(t, req(t, hs2, "GET", "/api/v1/functions/sort/deployment", "tok-acme", nil, nil), http.StatusOK)
		var dep Deployment
		if err := json.Unmarshal(data, &dep); err != nil {
			t.Fatal(err)
		}
		if dep.Stable != 1 || dep.Latest != 2 {
			t.Fatalf("reloaded deployment = %+v, want stable v1, latest v2", dep)
		}
		if dep.Canary == nil || dep.Canary.Version != 2 {
			t.Fatalf("journaled canary not resumed: %+v", dep.Canary)
		}
		// The v2 artifact is still pullable by version.
		mustStatus(t, req(t, hs2, "GET", "/api/v1/functions/sort/model?version=2", "tok-acme", nil, nil), http.StatusOK)
	})
}

// TestCanaryReportRequiresReporter: a canary report without a reporter is
// refused with 400 before anything is counted. Only reporter-keyed
// cumulative totals are safe under the client's at-least-once retries.
func TestCanaryReportRequiresReporter(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 4.5), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 6.5), nil), http.StatusCreated)
	report := func(body string, want int) {
		t.Helper()
		mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/canary/report", "tok-acme", []byte(body), nil), want)
	}
	report(`{"version":2,"reporter":"p1","calls":5,"failures":1}`, http.StatusOK)
	report(`{"version":2,"calls":10,"failures":0}`, http.StatusBadRequest)
	report(`{"version":2,"reporter":"","calls":10,"failures":0}`, http.StatusBadRequest)
	data := mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/deployment", "tok-acme", nil, nil), http.StatusOK)
	var dep Deployment
	if err := json.Unmarshal(data, &dep); err != nil {
		t.Fatal(err)
	}
	if c := dep.Canary; c == nil || c.Calls != 5 || c.Failures != 1 {
		t.Fatalf("canary after rejected reports = %+v, want 5 calls / 1 failure", c)
	}
}
