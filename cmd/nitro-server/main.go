// nitro-server runs the Nitro model registry daemon: a multi-tenant HTTP
// service that owns tuned models for many functions, ingests observation
// samples from deployed clients, retrains on pooled fleet evidence, and
// distributes versioned model artifacts behind a fraction-gated canary.
//
// Tenants are declared either inline (-tenant name=token, comma-separated
// for several) or in a JSON file (-tenants) that can also carry per-tenant
// quotas. The telemetry surface (/metrics, /vars, /healthz) shares the
// listener with the API.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nitro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9090", "listen address (host:port; :0 picks a free port)")
		dataDir     = flag.String("data-dir", "", "directory for persisted specs and model artifacts (empty: in-memory only)")
		tenantsFile = flag.String("tenants", "", "JSON file declaring tenants: [{\"name\":...,\"token\":...,\"quotas\":{...}}]")
		tenantFlag  = flag.String("tenant", "", "inline tenants, comma-separated name=token pairs")
		workers     = flag.Int("workers", 2, "tuning worker goroutines")
		canaryFrac  = flag.Float64("canary-fraction", 0.2, "traffic fraction a challenger model serves during the canary gate")
		canaryMin   = flag.Int64("canary-min-samples", 50, "fleet-wide challenger calls required before a canary verdict")
		canaryFail  = flag.Float64("canary-max-failure-rate", 0.1, "challenger failure rate above which a canary rolls back")
		traceSeed   = flag.Int64("trace-seed", 0, "seed for server-minted trace ids (0: crypto/rand)")
		logEvents   = flag.Bool("log-events", false, "emit the structured JSON event stream on stderr")
		debugEvents = flag.Bool("debug", false, "lower the event stream to Debug level (per-request events)")
		profiling   = flag.Bool("pprof", false, "mount /debug/pprof and export Go runtime metrics (trusted networks only)")
		flightCap   = flag.Int("flight-capacity", 0, "flight recorder ring size (0: default)")
	)
	flag.Parse()

	tenants, err := loadTenants(*tenantsFile, *tenantFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: %v\n", err)
		os.Exit(2)
	}
	var logWriter io.Writer
	if *logEvents || *debugEvents {
		logWriter = os.Stderr
	}
	cfg := server.Config{
		Addr: *addr,
		Registry: server.RegistryConfig{
			Tenants: tenants,
			DataDir: *dataDir,
			Workers: *workers,
			Canary: server.CanaryPolicy{
				Fraction:       *canaryFrac,
				MinSamples:     *canaryMin,
				MaxFailureRate: *canaryFail,
			},
		},
		Obs: server.ObsConfig{
			LogWriter:      logWriter,
			Debug:          *debugEvents,
			TraceSeed:      *traceSeed,
			FlightCapacity: *flightCap,
			Profiling:      *profiling,
		},
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: %v\n", err)
		os.Exit(2)
	}
	if err := d.Start(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("nitro-server listening on http://%s (%d tenants)\n", d.Addr(), len(tenants))

	// SIGQUIT dumps the flight recorder to stderr and keeps serving — the
	// crash-forensics path when a daemon misbehaves but must stay up.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintf(os.Stderr, "nitro-server: flight recorder dump:\n%s\n", d.Flight().DumpJSON())
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	<-stop
	fmt.Println("nitro-server: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: shutdown: %v\n", err)
		os.Exit(1)
	}
}

// loadTenants merges -tenants (JSON file) and -tenant (inline pairs).
func loadTenants(file, inline string) ([]server.TenantConfig, error) {
	var out []server.TenantConfig
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
	}
	if inline != "" {
		for _, pair := range strings.Split(inline, ",") {
			name, token, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" || token == "" {
				return nil, fmt.Errorf("bad -tenant entry %q, want name=token", pair)
			}
			out = append(out, server.TenantConfig{Name: name, Token: token})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants configured: pass -tenant name=token or -tenants file.json")
	}
	return out, nil
}
