package profile

import (
	"context"
	"runtime/pprof"
	"testing"
)

func TestEnableReferenceCounts(t *testing.T) {
	if Enabled() {
		t.Fatal("labels enabled at package init")
	}
	Enable()
	Enable()
	Disable()
	if !Enabled() {
		t.Fatal("refcount dropped to zero after one Disable of two Enables")
	}
	Disable()
	if Enabled() {
		t.Fatal("labels still enabled after balanced Disables")
	}
}

func TestDoJobAttachesLabels(t *testing.T) {
	var phase, campaign, job string
	var ok1, ok2 bool
	DoJob(context.Background(), "fig2a-sweep", 42, func(ctx context.Context) {
		campaign, ok1 = pprof.Label(ctx, LabelCampaign)
		job, ok2 = pprof.Label(ctx, LabelJob)
		phase, _ = pprof.Label(ctx, LabelPhase)
	})
	if !ok1 || campaign != "fig2a-sweep" {
		t.Fatalf("campaign label = %q", campaign)
	}
	if !ok2 || job != "42" {
		t.Fatalf("job label = %q", job)
	}
	if phase != "" {
		t.Fatalf("unexpected phase label %q", phase)
	}
}
