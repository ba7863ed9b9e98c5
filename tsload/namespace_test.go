package tsload_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"tsspace/tsload"
	"tsspace/tsserve"
)

// The tenants mix provisions its namespaces, partitions every measured
// getTS op across them, and the Zipf skew makes namespace 0 the hot
// tenant. Its happens-before check (checkResult) must stay clean: the
// cold namespaces' collect counters trail the hot one's, so a worker
// that compared a timestamp with one from another namespace would count
// violations; the check restarts whenever a lease binds another one.
func TestTenantsMix(t *testing.T) {
	mix := mustMix(t, "tenants")
	target, ctl := newBinaryDaemon(t, "collect", 8, tsserve.ServerConfig{})
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mix,
		Target:   target,
		Workers:  4,
		Duration: 10 * time.Second,
		MaxOps:   3000,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Namespaces != mix.Namespaces || len(res.NamespaceOps) != mix.Namespaces {
		t.Fatalf("run reports %d namespaces with %d op counters, want %d",
			res.Namespaces, len(res.NamespaceOps), mix.Namespaces)
	}
	var sum, hottest uint64
	for _, v := range res.NamespaceOps {
		sum += v
		if v > hottest {
			hottest = v
		}
	}
	if sum != res.Ops {
		t.Errorf("namespace ops %v sum to %d, want every getTS op (%d) attributed", res.NamespaceOps, sum, res.Ops)
	}
	// Zipf(s=1.5) over 8 namespaces: index 0 draws the bulk of the
	// leases — it must be the maximum and well above the uniform share.
	if res.NamespaceOps[0] == sum {
		t.Errorf("every op ran in namespace 0: %v", res.NamespaceOps)
	}
	if res.NamespaceOps[0] != hottest {
		t.Errorf("namespace 0 is not the hot tenant: %v", res.NamespaceOps)
	}
	if uniform := sum / uint64(mix.Namespaces); res.NamespaceOps[0] <= uniform {
		t.Errorf("hot tenant took %d of %d ops, want more than the uniform share %d",
			res.NamespaceOps[0], sum, uniform)
	}
	// Each run deprovisions its namespaces on the daemon as it ends, so
	// the daemon serves only its default namespace again and a second
	// run against the same target starts clean.
	tornDown := func(run string) {
		t.Helper()
		names, err := ctl.Namespaces(context.Background())
		if err != nil || !slices.Equal(names, []string{tsserve.DefaultNamespace}) {
			t.Fatalf("namespaces after the %s run = %v (%v), want only %q", run, names, err, tsserve.DefaultNamespace)
		}
	}
	tornDown("first")
	if _, err := tsload.Run(context.Background(), tsload.Config{
		Mix: mix, Target: target, Workers: 2,
		Duration: 10 * time.Second, MaxOps: 200, Seed: 22,
	}); err != nil {
		t.Fatalf("second tenants run: %v", err)
	}
	tornDown("second")
}

// The storm mix floods one quota-capped namespace over the wire: quota
// rejections land in ExpectedErrors (never Unexpected), and the getTS
// ops still partition into the namespace counters.
func TestStormMixQuotaRejectionsExpected(t *testing.T) {
	mix := mustMix(t, "storm")
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mix,
		Target:   newHTTP(t, "collect", 8),
		Workers:  4,
		Duration: 10 * time.Second,
		MaxOps:   400,
		Seed:     23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatalf("no measured ops under storm mix: %+v", res)
	}
	if res.UnexpectedErrors != 0 {
		t.Errorf("%d unexpected errors under storm (total %d, expected %d)",
			res.UnexpectedErrors, res.Errors, res.ExpectedErrors)
	}
	if res.Errors != res.ExpectedErrors+res.UnexpectedErrors {
		t.Errorf("error split does not add up: %d != %d + %d",
			res.Errors, res.ExpectedErrors, res.UnexpectedErrors)
	}
	if res.Namespaces != 1 || len(res.NamespaceOps) != 1 || res.NamespaceOps[0] != res.Ops {
		t.Errorf("storm namespace accounting: %d namespaces, ops %v, getTS %d",
			res.Namespaces, res.NamespaceOps, res.Ops)
	}
	if res.HBViolations != 0 {
		t.Errorf("%d happens-before violations under the attach storm", res.HBViolations)
	}
}

// A namespace mix against a target with no provisioner surface — the
// in-process SDK namespaces nothing — is a configuration error, not a
// hang or a silent single-tenant run.
func TestNamespaceMixNeedsProvisioner(t *testing.T) {
	for _, name := range []string{"tenants", "storm"} {
		_, err := tsload.Run(context.Background(), tsload.Config{
			Mix:      mustMix(t, name),
			Target:   newInProc(t, "collect", 8),
			Workers:  2,
			Duration: time.Second,
			MaxOps:   50,
			Seed:     24,
		})
		if !errors.Is(err, tsload.ErrBadConfig) {
			t.Errorf("%s mix against a target without a provisioner = %v, want ErrBadConfig", name, err)
		}
	}
}
