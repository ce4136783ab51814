package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"safesense/internal/radar"
	"safesense/internal/trace"
)

// Signal-level bit-identity golden: SHA-256 over the Float64bits of every
// Distance/Velocity/Speeds trace sample plus DetectedAt, CollisionAt,
// MinGap and the detector accuracy of a fixed set of signal-level runs.
// Any change to sweep synthesis, the periodogram, the peak pick, the
// root-MUSIC eigensolver or the estimator that moves a single bit of a
// single run changes the digest. Like the other goldens in this package
// the digests assume linux/amd64: Go fuses a*b+c into one FMA on some
// other architectures (arm64, ppc64le, s390x), which rounds differently.
const (
	// 40 FFT-extractor runs: the four figure scenarios, Seed = i·7919+1
	// for i < 10.
	signalFFTDigest = "ecb42962015a5afb5b7817612b76dec13a317e0db2f406a48352203a6db9b483"
	// 2 root-MUSIC runs: Fig 2a and Fig 3b at Seed 1.
	signalMUSICDigest = "ff5f8f23d2ff1f0a9d486d524e828d669b65b710fb98ea81a2cde1d6cbdbca84"
)

func TestSignalLevelDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64 (no FMA fusion); GOARCH=%s", runtime.GOARCH)
	}
	figures := []Scenario{Fig2aDoS(), Fig2bDelay(), Fig3aDoS(), Fig3bDelay()}
	fft := sha256.New()
	for _, base := range figures {
		for i := 0; i < 10; i++ {
			s := signalLevel(base, radar.FFTExtractor{})
			s.Seed = int64(i)*7919 + 1
			digestRun(t, fft, s)
		}
	}
	if got := hex.EncodeToString(fft.Sum(nil)); got != signalFFTDigest {
		t.Errorf("FFT signal-level digest = %s, want %s", got, signalFFTDigest)
	}
	if testing.Short() {
		t.Skip("root-MUSIC runs take about a second each")
	}
	mus := sha256.New()
	for _, base := range []Scenario{Fig2aDoS(), Fig3bDelay()} {
		digestRun(t, mus, signalLevel(base, radar.MUSICExtractor{}))
	}
	if got := hex.EncodeToString(mus.Sum(nil)); got != signalMUSICDigest {
		t.Errorf("root-MUSIC signal-level digest = %s, want %s", got, signalMUSICDigest)
	}
}

// digestRun runs s and feeds its bit-level outcome into h.
func digestRun(t *testing.T, h hash.Hash, s Scenario) {
	t.Helper()
	res, err := Run(s)
	if err != nil {
		t.Fatalf("%s seed %d: %v", s.Name, s.Seed, err)
	}
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putSet := func(set *trace.Set) {
		for _, name := range set.Names() {
			h.Write([]byte(name))
			sr := set.Series(name)
			put(uint64(sr.Len()))
			for i, y := range sr.Y {
				put(uint64(sr.T[i]))
				put(math.Float64bits(y))
			}
		}
	}
	putSet(res.Distance)
	putSet(res.Velocity)
	putSet(res.Speeds)
	put(uint64(int64(res.DetectedAt)))
	put(uint64(int64(res.CollisionAt)))
	put(math.Float64bits(res.MinGap))
	a := res.Accuracy
	for _, v := range []int{a.TruePositives, a.TrueNegatives, a.FalsePositives, a.FalseNegatives} {
		put(uint64(int64(v)))
	}
}
