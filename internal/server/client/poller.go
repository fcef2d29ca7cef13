package client

// Poller: the deployment-following side of the registry protocol. Each
// PollOnce reconciles a local core.Context against the server's deployment
// state for one function:
//
//   - a new stable version is pulled (ETag-cached) and installed through the
//     context's atomic hot-swap; a pull or validation failure leaves the
//     incumbent serving — rollback is "don't install", never "uninstall";
//   - a live canary installs the challenger at the server's fraction via
//     SetCanary, so the challenger serves real traffic through the dispatch
//     ladder while the stable model keeps the rest;
//   - local challenger outcomes feed the server's fleet aggregate as
//     cumulative totals under a per-poller reporter ID, so a report the
//     retry layer replays (applied once, response lost) cannot be counted
//     twice; the server's verdict — promoted or rolled back — clears the
//     local canary, and a promotion installs the challenger as the new
//     stable without re-pulling bytes.
//
// Under a network partition the poller degrades, never breaks: PollOnce
// returns the transport error (or ErrCircuitOpen once the client's breaker
// trips), the installed incumbent — and any in-hand canary — keeps serving
// local traffic untouched, and the failure streak is tracked in Stats().
// The first successful poll after a streak reconciles against whatever the
// server decided while the poller was dark: a canary that settled during
// the partition is adopted (promoted) or dropped (rolled back) exactly as
// if the poller had seen the verdict live.

import (
	"context"
	"fmt"
	"strconv"

	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/obs/trace"
	"nitro/internal/server"
)

// Poller reconciles one function on one core.Context with the registry.
// Not safe for concurrent PollOnce calls; the context it manages is fully
// concurrent-safe (hot-swap + canary are atomic).
type Poller struct {
	c  *Client
	cx *core.Context
	fn string
	// reporter identifies this poller in canary reports; the server keys
	// its retry-dedup baselines on it.
	reporter string

	stableVersion int
	stableETag    string

	canaryVersion int
	canaryModel   *ml.Model

	stats PollerStats
}

// PollerStats tracks the poller's health across reconciliation cycles.
type PollerStats struct {
	// Polls counts PollOnce invocations; Failures counts the ones that
	// returned an error (the incumbent kept serving through every one).
	Polls    int64
	Failures int64
	// ConsecutiveFailures is the current unbroken failure streak — nonzero
	// means the poller is presently degraded (partitioned from or rejected
	// by the registry) and serving its installed incumbent.
	ConsecutiveFailures int64
	// Heals counts streak endings: a successful poll after >= 1 failures.
	Heals int64
}

// NewPoller builds a poller that installs models for fn into cx.
func NewPoller(c *Client, cx *core.Context, fn string) *Poller {
	return &Poller{c: c, cx: cx, fn: fn, reporter: c.newReporterID()}
}

// PollResult reports what one reconciliation did.
type PollResult struct {
	// StableVersion is the locally installed stable generation (0 = none).
	StableVersion int
	// InstalledStable reports that this poll hot-swapped a new stable.
	InstalledStable bool
	// CanaryVersion is the locally serving challenger (0 = none).
	CanaryVersion int
	// StartedCanary / Decision report canary lifecycle edges: Decision is
	// "" while nothing settled, otherwise the server's verdict.
	StartedCanary bool
	Decision      string
	// Healed reports that this poll ended a failure streak: the registry
	// is reachable again and the local state was reconciled.
	Healed bool
	// Trace is the correlation id this poll ran under: the id carried by
	// the caller's context, or one minted for the poll. Every request the
	// poll issued sent it as X-Nitro-Trace-Id, so the server's log,
	// journal and flight recorder are greppable by it.
	Trace string
}

// StableVersion reports the currently installed stable generation.
func (p *Poller) StableVersion() int { return p.stableVersion }

// Stats reports the poller's cumulative health counters.
func (p *Poller) Stats() PollerStats { return p.stats }

// Degraded reports whether the poller is mid failure streak: the registry
// is unreachable and the installed incumbent is serving solo.
func (p *Poller) Degraded() bool { return p.stats.ConsecutiveFailures > 0 }

// PollOnce runs one reconciliation pass. Each poll runs under one trace
// id — taken from ctx when the caller attached one (trace.With), minted
// otherwise — which every request of the pass carries to the server.
func (p *Poller) PollOnce(ctx context.Context) (PollResult, error) {
	id := trace.From(ctx)
	if id == "" {
		id = p.c.cfg.TraceSource.NewID()
		ctx = trace.With(ctx, id)
	}
	log := p.c.cfg.Log
	log.Debug(ctx, "client", "poll.start", trace.F("fn", p.fn))
	res, err := p.pollOnce(ctx)
	res.Trace = id
	p.stats.Polls++
	if err != nil {
		p.stats.Failures++
		p.stats.ConsecutiveFailures++
		log.Error(ctx, "client", "poll.fail", trace.F("fn", p.fn),
			trace.F("streak", strconv.FormatInt(p.stats.ConsecutiveFailures, 10)),
			trace.F("error", err.Error()))
		return res, err
	}
	if p.stats.ConsecutiveFailures > 0 {
		p.stats.ConsecutiveFailures = 0
		p.stats.Heals++
		res.Healed = true
		log.Event(ctx, "client", "poll.heal", trace.F("fn", p.fn),
			trace.F("stable", strconv.Itoa(res.StableVersion)))
	}
	// One poll can do both: install a new stable AND adopt the canary
	// staged on top of it. They are separate transitions — log each.
	if res.InstalledStable {
		log.Event(ctx, "client", "model.install", trace.F("fn", p.fn),
			trace.F("version", strconv.Itoa(res.StableVersion)))
	}
	if res.StartedCanary {
		log.Event(ctx, "client", "canary.adopt", trace.F("fn", p.fn),
			trace.F("version", strconv.Itoa(res.CanaryVersion)))
	}
	if res.Decision != "" && res.Decision != server.DecisionPending {
		log.Event(ctx, "client", "canary.verdict", trace.F("fn", p.fn),
			trace.F("decision", res.Decision))
	}
	return res, nil
}

func (p *Poller) pollOnce(ctx context.Context) (PollResult, error) {
	res := PollResult{StableVersion: p.stableVersion, CanaryVersion: p.canaryVersion}
	dep, err := p.c.Deployment(ctx, p.fn)
	if err != nil {
		return res, err
	}

	// Reconcile the stable model first: canary verdicts below may assume
	// the current stable is installed.
	if dep.Stable != 0 && dep.Stable != p.stableVersion {
		if err := p.installStable(ctx, dep.Stable); err != nil {
			return res, err
		}
		res.InstalledStable = true
	}
	res.StableVersion = p.stableVersion

	switch {
	case dep.Canary == nil && p.canaryVersion != 0:
		// The episode settled while we weren't looking (another client's
		// report crossed the threshold). Stop serving the challenger; the
		// stable reconciliation above already follows a promotion.
		p.clearCanary()
	case dep.Canary != nil && dep.Canary.Version != p.canaryVersion:
		if err := p.startCanary(ctx, dep); err != nil {
			return res, err
		}
		res.StartedCanary = true
	case dep.Canary != nil:
		dec, err := p.reportCanary(ctx)
		if err != nil {
			return res, err
		}
		res.Decision = dec
	}
	res.CanaryVersion = p.canaryVersion
	return res, nil
}

func (p *Poller) installStable(ctx context.Context, version int) error {
	// A promoted challenger is already in hand — install the bytes we have
	// been serving as canary instead of re-pulling them.
	if p.canaryModel != nil && p.canaryVersion == version {
		if err := p.cx.SetModel(p.fn, p.canaryModel); err != nil {
			return fmt.Errorf("client: installing promoted canary v%d: %w", version, err)
		}
		p.stableVersion = version
		p.stableETag = ""
		return nil
	}
	pull, err := p.c.PullModel(ctx, p.fn, version, p.stableETag)
	if err != nil {
		return err
	}
	if pull.NotModified {
		p.stableVersion = version
		return nil
	}
	// SetModel validates before swapping; a bad artifact leaves the
	// incumbent model serving.
	if err := p.cx.SetModel(p.fn, pull.Model); err != nil {
		return fmt.Errorf("client: installing v%d: %w", version, err)
	}
	p.stableVersion = version
	p.stableETag = pull.ETag
	return nil
}

func (p *Poller) startCanary(ctx context.Context, dep server.Deployment) error {
	pull, err := p.c.PullModel(ctx, p.fn, dep.Canary.Version, "")
	if err != nil {
		return err
	}
	if err := p.cx.SetCanary(p.fn, pull.Model, dep.Canary.Fraction); err != nil {
		return fmt.Errorf("client: installing canary v%d: %w", dep.Canary.Version, err)
	}
	p.canaryVersion = dep.Canary.Version
	p.canaryModel = pull.Model
	return nil
}

func (p *Poller) reportCanary(ctx context.Context) (string, error) {
	// The context's counters are already cumulative for the installed
	// challenger; reporting them as-is under the poller's reporter ID lets
	// the server compute the delta itself and drop retry replays — no
	// local delta bookkeeping, no double counts when a response is lost.
	st := p.cx.CanaryStats(p.fn)
	dec, _, err := p.c.ReportCanary(ctx, p.fn, p.canaryVersion, p.reporter, st.Calls, st.Failures)
	if err != nil {
		return "", err
	}
	switch dec {
	case "promoted":
		promoted := p.canaryVersion
		if err := p.cx.SetModel(p.fn, p.canaryModel); err != nil {
			return dec, fmt.Errorf("client: promoting canary v%d: %w", promoted, err)
		}
		p.stableVersion = promoted
		p.stableETag = ""
		p.clearCanary()
	case "rolledback":
		p.clearCanary()
	}
	return dec, nil
}

func (p *Poller) clearCanary() {
	p.cx.ClearCanary(p.fn)
	p.canaryVersion = 0
	p.canaryModel = nil
}
