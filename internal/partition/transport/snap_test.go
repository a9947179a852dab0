package transport

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp := AppendCompress(nil, src)
	got, err := Decompress(nil, comp)
	if err != nil {
		t.Fatalf("Decompress(%d-byte input): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round-trip mismatch: %d bytes in, %d bytes out", len(src), len(got))
	}
	return comp
}

func TestSnapRoundTripEmpty(t *testing.T) {
	comp := roundTrip(t, nil)
	if len(comp) != 1 {
		t.Fatalf("empty input compressed to %d bytes, want 1 (uvarint 0)", len(comp))
	}
}

func TestSnapRoundTripShort(t *testing.T) {
	for _, s := range []string{"a", "ab", "abc", "abcd", "hello, world"} {
		roundTrip(t, []byte(s))
	}
}

func TestSnapRoundTripRepetitive(t *testing.T) {
	src := []byte(strings.Repeat("the WAL record repeats itself. ", 500))
	comp := roundTrip(t, src)
	if len(comp) >= len(src)/4 {
		t.Fatalf("repetitive input: %d bytes compressed to %d, want < 1/4", len(src), len(comp))
	}
}

func TestSnapRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 4095, 4096, 70000} {
		src := make([]byte, n)
		rng.Read(src)
		roundTrip(t, src)
	}
}

// Mixed content exercises both literal and copy emission, including
// matches near the 65535-offset window edge.
func TestSnapRoundTripMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var src []byte
	chunk := make([]byte, 300)
	rng.Read(chunk)
	for i := 0; i < 400; i++ {
		switch i % 3 {
		case 0:
			src = append(src, chunk...)
		case 1:
			fresh := make([]byte, rng.Intn(200)+1)
			rng.Read(fresh)
			src = append(src, fresh...)
		case 2:
			src = append(src, bytes.Repeat([]byte{byte(i)}, rng.Intn(100)+1)...)
		}
	}
	roundTrip(t, src)
}

// Overlapping copies (offset < length) are the classic LZ decode trap;
// runs of one byte produce them.
func TestSnapOverlappingCopy(t *testing.T) {
	roundTrip(t, bytes.Repeat([]byte{'x'}, 10000))
	roundTrip(t, bytes.Repeat([]byte{'a', 'b'}, 5000))
}

func TestSnapDecompressCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"bad uvarint":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"truncated literal": {10, 0 << 2 /* literal len 1 */},
		"length mismatch":   append([]byte{200}, AppendCompress(nil, []byte("abc"))[1:]...),
		"zero offset":       {4, byte(2) | (3 << 2), 0, 0},
		"offset too far":    {4, byte(2) | (3 << 2), 0xff, 0xff},
		"trailing garbage":  append(AppendCompress(nil, []byte("abcdef")), 0x00),
	}
	for name, b := range cases {
		if _, err := Decompress(nil, b); err == nil {
			t.Errorf("%s: Decompress accepted corrupt input", name)
		}
	}
}

// TestSnapDecompressLengthBomb: a bare header claiming a whole frame is
// corrupt, and is rejected before the claimed buffer is allocated.
func TestSnapDecompressLengthBomb(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(nil, snapBomb)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Decompress accepted a header-only block claiming a whole frame")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("Decompress allocated %d bytes for a %d-byte block", grown, len(snapBomb))
	}
}

// Decompress must reuse dst capacity but never alias src.
func TestSnapDecompressDst(t *testing.T) {
	src := []byte(strings.Repeat("abcdefgh", 100))
	comp := AppendCompress(nil, src)
	dst := make([]byte, 0, len(src))
	got, err := Decompress(dst, comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("round-trip mismatch with preallocated dst")
	}
}
