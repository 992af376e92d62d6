package scenario

import (
	"fmt"
	"testing"
)

// limitDoc is a document with the given topology and ues section bodies.
func limitDoc(topology, ues string) string {
	return "name: t\nrun:\n  ttis: 10\ntopology:\n" + topology + "ues:\n" + ues
}

func ueGroup(count, enb string, imsiBase int) string {
	return fmt.Sprintf(`  - count: %s
    enb: %s
    imsi_base: %d
    channel:
      model: fixed
      cqi: 10
    traffic:
      - kind: full_buffer
`, count, enb, imsiBase)
}

// TestParseSizeLimits checks that Parse rejects the sizes it would expand
// from a single number beyond its limits, instead of overflowing, looping
// or allocating without bound.
func TestParseSizeLimits(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{
			name: "honeycomb rings overflowing the site count",
			doc:  limitDoc("  honeycomb:\n    rings: 3037000499\n", ueGroup("1", "1", 1)),
			want: "scenario: topology.honeycomb.rings must be at most 147",
		},
		{
			name: "honeycomb rings one past the limit",
			doc:  limitDoc("  honeycomb:\n    rings: 148\n", ueGroup("1", "1", 1)),
			want: "scenario: topology.honeycomb.rings must be at most 147",
		},
		{
			name: "honeycomb site count",
			doc:  limitDoc("  honeycomb:\n    enbs: 65537\n", ueGroup("1", "1", 1)),
			want: "scenario: topology.honeycomb.enbs must be at most 65536",
		},
		{
			name: "grid site count",
			doc:  limitDoc("  grid:\n    enbs: 9223372036854775807\n", ueGroup("1", "1", 1)),
			want: "scenario: topology.grid.enbs must be at most 65536",
		},
		{
			name: "one group's count",
			doc:  limitDoc("  enbs:\n    - id: 1\n", ueGroup("1048577", "1", 1)),
			want: "scenario: ues[0]: the UE population exceeds the limit of 1048576",
		},
		{
			name: "count replicated on every eNodeB",
			doc:  limitDoc("  grid:\n    enbs: 4096\n", ueGroup("300", "all", 1)),
			want: "scenario: ues[0]: the UE population exceeds the limit of 1048576",
		},
		{
			name: "count times eNodeBs overflowing int",
			doc:  limitDoc("  grid:\n    enbs: 4096\n", ueGroup("9223372036854775807", "all", 1)),
			want: "scenario: ues[0]: the UE population exceeds the limit of 1048576",
		},
		{
			name: "population summed over groups",
			doc: limitDoc("  enbs:\n    - id: 1\n",
				ueGroup("600000", "1", 1)+ueGroup("600000", "1", 1000000)),
			want: "scenario: ues[1]: the UE population exceeds the limit of 1048576",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.doc)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestParseSizeLimitsAdmitLargest checks that the largest sizes within
// the limits still parse.
func TestParseSizeLimitsAdmitLargest(t *testing.T) {
	if got := 1 + 3*maxRings*(maxRings+1); got > maxENBs || 1+3*(maxRings+1)*(maxRings+2) <= maxENBs {
		t.Fatalf("maxRings %d (%d sites) is not the largest ring count within %d sites", maxRings, got, maxENBs)
	}
	for _, topo := range []string{
		"  honeycomb:\n    rings: 147\n",
		"  honeycomb:\n    enbs: 65536\n",
		"  grid:\n    enbs: 65536\n",
	} {
		if _, err := Parse(limitDoc(topo, ueGroup("1", "1", 1))); err != nil {
			t.Fatalf("%q: %v", topo, err)
		}
	}
}
