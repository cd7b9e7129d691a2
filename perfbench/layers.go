package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/store"
)

// outputDigest hashes a run's outputs the way the serve layer's
// output_hash does: names sorted, each value's encoded bytes folded in.
// Byte-identical outputs give equal digests whatever plan produced them.
func outputDigest(outputs map[string]any) (string, error) {
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		raw, err := store.Encode(outputs[n])
		if err != nil {
			return "", fmt.Errorf("encode output %s: %w", n, err)
		}
		fmt.Fprintf(h, "%s:%d:", n, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// schedOverhead is the part of an iteration's wall the node work cannot
// explain: Wall minus the larger of the critical path over measured node
// durations and the total node time spread over every worker.
func schedOverhead(rep *core.Report, workers int) (time.Duration, error) {
	cost := make([]int64, len(rep.Nodes))
	var sum int64
	for i, n := range rep.Nodes {
		if n.State != opt.Prune {
			cost[i] = int64(n.Duration)
			sum += cost[i]
		}
	}
	weights, err := rep.Graph.CriticalPath(cost)
	if err != nil {
		return 0, err
	}
	bound := sum / int64(workers)
	for _, w := range weights {
		bound = max(bound, w)
	}
	return rep.Wall - time.Duration(bound), nil
}

// byteSource is a store tier whose entries can be read back raw.
type byteSource interface {
	Entries() []store.Entry
	GetBytes(key string) ([]byte, error)
}

// replayStats accumulates a store/codec replay: every stored entry read
// back raw, decoded, and re-encoded, each step timed on its own.
type replayStats struct {
	bytes, encodedBytes  int64
	read, decode, encode time.Duration
}

func (r *replayStats) mbps(d time.Duration, bytes int64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / mib / d.Seconds()
}

// replay reads every entry of src and times the raw read, store.Decode and
// store.EncodeValueWith on its real payload, recording a trace span per
// phase under parent.
func (r *replayStats) replay(src byteSource, rec *recorder, parent, run int64) error {
	entries := src.Entries()
	raws := make([][]byte, 0, len(entries))
	readSpan := rec.begin("store.replay", "store", parent, run, 0, 0)
	for _, e := range entries {
		t := time.Now()
		raw, err := src.GetBytes(e.Key)
		r.read += time.Since(t)
		if err != nil {
			return fmt.Errorf("replay read %s: %w", e.Key, err)
		}
		raws = append(raws, raw)
		r.bytes += int64(len(raw))
	}
	rec.end(readSpan)
	codecSpan := rec.begin("codec.replay", "codec", parent, run, 0, 0)
	for i, raw := range raws {
		t := time.Now()
		v, err := store.Decode(raw)
		r.decode += time.Since(t)
		if err != nil {
			return fmt.Errorf("replay decode %s: %w", entries[i].Key, err)
		}
		t = time.Now()
		enc, err := store.EncodeValueWith(store.CodecAuto, v)
		r.encode += time.Since(t)
		if err != nil {
			return fmt.Errorf("replay encode %s: %w", entries[i].Key, err)
		}
		r.encodedBytes += enc.Size()
		enc.Release()
	}
	rec.end(codecSpan)
	return nil
}

// layers fills the store.read_mbps and codec.* rates.
func (r *replayStats) layers(o *outcome) {
	o.layer["store.read_mbps"] = r.mbps(r.read, r.bytes)
	o.layer["codec.decode_mbps"] = r.mbps(r.decode, r.bytes)
	o.layer["codec.encode_mbps"] = r.mbps(r.encode, r.encodedBytes)
}
