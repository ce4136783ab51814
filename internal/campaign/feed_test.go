package campaign

import (
	"reflect"
	"testing"
)

func TestIncidents(t *testing.T) {
	base := Outcome{Index: 5, Label: "dos/onset=150", Point: Point{Seed: 99}, CollisionAt: -1}
	with := func(collisionAt, fp, fn int) Outcome {
		o := base
		o.CollisionAt, o.FalsePositives, o.FalseNegatives = collisionAt, fp, fn
		return o
	}
	collision := Incident{Kind: IncidentCollision, JobIndex: 5, Seed: 99, K: 171, Detail: "dos/onset=150"}
	fp := Incident{Kind: IncidentFalsePositive, JobIndex: 5, Seed: 99, Detail: "dos/onset=150: 2 false positives"}
	fn := Incident{Kind: IncidentFalseNegative, JobIndex: 5, Seed: 99, Detail: "dos/onset=150: 1 false negatives"}
	cases := []struct {
		name string
		o    Outcome
		want []Incident
	}{
		{"clean", base, nil},
		{"collision", with(171, 0, 0), []Incident{collision}},
		{"collision at step 0", with(0, 0, 0), []Incident{{Kind: IncidentCollision, JobIndex: 5, Seed: 99, Detail: "dos/onset=150"}}},
		{"false positives", with(-1, 2, 0), []Incident{fp}},
		{"false negatives", with(-1, 0, 1), []Incident{fn}},
		{"all three in order", with(171, 2, 1), []Incident{collision, fp, fn}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Incidents(tc.o)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Incidents = %+v\nwant %+v", got, tc.want)
			}
			for _, in := range got {
				if in.Kind != IncidentCollision && in.K != 0 {
					t.Errorf("%s incident carries k = %d; only collisions have a step", in.Kind, in.K)
				}
			}
		})
	}
}
