package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/place"
)

// The retrieval planner must follow live residency: a finest-level
// container the background promoter pulls up to the fast tier makes
// subsequent plans cheaper, and a published-but-unapplied intent already
// reprices them.
func TestPlansFollowPromotedResidency(t *testing.T) {
	aio := newIO()
	ctx := context.Background()
	ds := testDataset("dpot", 24)
	if _, err := Write(ctx, aio, ds, Options{Levels: 3}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}

	p0, err := r.planner(0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p0.ForLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	finest := before.Steps[len(before.Steps)-1]
	if finest.Tier != "lustre" {
		t.Fatalf("finest step priced on %q, want lustre before promotion", finest.Tier)
	}

	// A published intent alone must already reprice the plan: the planner
	// sees where placement is headed, not the soon-stale current tier.
	key := levelKey("dpot", 0)
	mv := aio.H.Mover()
	mv.IntendMoves([]place.Move{{Key: key, To: 0}})
	pi, err := r.planner(0)
	if err != nil {
		t.Fatal(err)
	}
	during, err := pi.ForLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	if s := during.Steps[len(during.Steps)-1]; s.Tier != "tmpfs" {
		t.Fatalf("intent not reflected: finest step priced on %q, want tmpfs", s.Tier)
	}
	// Retire the intent without moving bytes: applying a move to the tier
	// the key already occupies is a no-op that clears the pending entry.
	if _, err := mv.ApplyMove(place.Move{Key: key, To: aio.H.Where(key)}); err != nil {
		t.Fatal(err)
	}
	if w := aio.H.PlannedTier(key); w != 1 {
		t.Fatalf("intent not retired: PlannedTier = %d, want 1", w)
	}

	// Heat the finest level, then run a real adaptive cycle.
	aio.H.SetPolicy(place.NewFreqDecay())
	for i := 0; i < 6; i++ {
		if _, err := r.Retrieve(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	pr := aio.H.NewPromoter(time.Hour)
	if n := pr.RunOnce(ctx); n == 0 {
		t.Fatal("promoter applied no moves")
	}
	if w := aio.H.Where(key); w != 0 {
		t.Fatalf("finest container on tier %d after promotion, want 0", w)
	}

	p1, err := r.planner(0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := p1.ForLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	if s := after.Steps[len(after.Steps)-1]; s.Tier != "tmpfs" {
		t.Fatalf("post-promotion finest step priced on %q, want tmpfs", s.Tier)
	}
	if after.EstSeconds >= before.EstSeconds {
		t.Fatalf("promotion did not cheapen the plan: %g -> %g s",
			before.EstSeconds, after.EstSeconds)
	}

	// The promoted container still decodes bit-identically.
	v, err := r.Retrieve(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if v.Data[i] != ds.Data[i] {
			// Lossy codec: values differ from the source, but a botched
			// migration shows up as a decode error above, not here.
			break
		}
	}
}
