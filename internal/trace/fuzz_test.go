package trace_test

import (
	"bytes"
	"context"
	"testing"

	"minigraph/internal/asm"
	"minigraph/internal/trace"
)

// fuzzSeedSrc is a tiny program whose capture exercises every record shape
// the codec carries: ALU ops, loads, stores, conditional branches, calls,
// returns and halt.
const fuzzSeedSrc = `
        .data
buf:    .word 3, 1, 4, 1, 5
out:    .space 8
        .text
main:   li    r1, 5
        lda   r2, buf(zero)
        clr   r3
loop:   ldq   r4, 0(r2)
        addq  r3, r4, r3
        lda   r2, 8(r2)
        subl  r1, 1, r1
        bne   r1, loop
        bsr   ra, leaf
        stq   r3, out(zero)
        halt
leaf:   addq  r3, r3, r3
        ret   (ra)
`

// FuzzChunkCodec: DecodeManifest and DecodeChunk must never panic on
// arbitrary bytes, an accepted manifest must be canonical (re-encodes to
// the identical bytes), and an accepted chunk frame must round-trip its
// payload bit-exactly through both the raw and the compressed encoding.
// These are the frames that cross process and machine boundaries (store
// entries, peer transfers), so they see truly hostile input.
func FuzzChunkCodec(f *testing.F) {
	prog := asm.MustAssemble("seed", fuzzSeedSrc)
	tr, err := trace.CaptureWith(context.Background(), prog, nil, 0,
		trace.CaptureOptions{ChunkRecords: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trace.EncodeManifest(tr.Manifest()))
	for ci := int64(0); ci < tr.NumChunks(); ci++ {
		raw, err := tr.ChunkPayload(ci)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(trace.EncodeChunk(ci, raw, ci%2 == 1))
	}
	short, err := trace.CaptureWith(context.Background(), prog, nil, 3,
		trace.CaptureOptions{ChunkRecords: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trace.EncodeManifest(short.Manifest()))
	f.Add([]byte{})
	f.Add([]byte("MGTM garbage"))
	f.Add([]byte("MGTC garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := trace.DecodeManifest(data); err == nil {
			re := trace.EncodeManifest(m)
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted non-canonical manifest: %d bytes in, %d re-encoded", len(data), len(re))
			}
			if _, err := trace.DecodeManifest(re); err != nil {
				t.Fatalf("re-encoded manifest does not decode: %v", err)
			}
		}
		if idx, raw, err := trace.DecodeChunk(data); err == nil {
			if len(raw)%trace.RecordBytes != 0 {
				t.Fatalf("accepted chunk of %d bytes: not whole rows", len(raw))
			}
			for _, compress := range []bool{false, true} {
				re := trace.EncodeChunk(idx, raw, compress)
				idx2, raw2, err := trace.DecodeChunk(re)
				if err != nil {
					t.Fatalf("re-encoded chunk (compress=%v) does not decode: %v", compress, err)
				}
				if idx2 != idx || !bytes.Equal(raw2, raw) {
					t.Fatalf("chunk round trip (compress=%v) changed the payload", compress)
				}
			}
		}
	})
}
