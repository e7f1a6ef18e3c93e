package can

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// Text trace interchange format, one frame per line:
//
//	<seconds> <sender> <hex-id> <hex-payload|-> [flags]
//
// e.g. "0.010000 engine 0C0 DEADBEEF" or "1.200000 atk 1FFFFFFF - EXT".
// Flags: EXT (extended id), RTR, FD, BRS, ERR (corrupted). This is the
// candump-style format cmd/canalyze reads and writes; in memory a trace is
// a netif.Trace of CAN records.

// WriteTrace emits the trace in the text format. Every record must hold a
// valid CAN frame; the first that does not is an error naming its index.
func WriteTrace(w io.Writer, t *netif.Trace) error {
	bw := bufio.NewWriter(w)
	for i := range t.Records {
		r := &t.Records[i]
		f, err := FrameFromNetif(&r.Frame)
		if err != nil {
			return fmt.Errorf("can: trace record %d: %w", i, err)
		}
		payload := "-"
		if len(f.Data) > 0 {
			payload = strings.ToUpper(hex.EncodeToString(f.Data))
		}
		var flags []string
		if f.Extended {
			flags = append(flags, "EXT")
		}
		if f.Remote {
			flags = append(flags, "RTR")
		}
		if f.FD {
			flags = append(flags, "FD")
		}
		if f.BRS {
			flags = append(flags, "BRS")
		}
		if r.Corrupted {
			flags = append(flags, "ERR")
		}
		sender := r.Frame.Sender
		if sender == "" {
			sender = "?"
		}
		if _, err := fmt.Fprintf(bw, "%.9f %s %X %s %s\n",
			r.At.Seconds(), sender, uint32(f.ID), payload, strings.Join(flags, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseTrace reads the text format back into a trace of CAN records, each
// checked with Frame.Validate. Blank lines and lines starting with '#'
// are skipped. Times round to the nearest nanosecond, so
// ParseTrace(WriteTrace(t)) reproduces t's timestamps; a time that is not
// finite, is negative or overflows sim.Time is an error.
func ParseTrace(r io.Reader) (*netif.Trace, error) {
	t := &netif.Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("can: trace line %d: want ≥4 fields, got %d", lineNo, len(fields))
		}
		secs, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("can: trace line %d: time: %v", lineNo, err)
		}
		ns := secs * float64(sim.Second)
		if !(ns >= 0 && ns < math.MaxInt64) { // also false for NaN
			return nil, fmt.Errorf("can: trace line %d: time %s out of range", lineNo, fields[0])
		}
		id64, err := strconv.ParseUint(fields[2], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("can: trace line %d: id: %v", lineNo, err)
		}
		f := Frame{ID: ID(id64)}
		if fields[3] != "-" {
			data, err := hex.DecodeString(fields[3])
			if err != nil {
				return nil, fmt.Errorf("can: trace line %d: payload: %v", lineNo, err)
			}
			f.Data = data
		}
		corrupted := false
		if len(fields) >= 5 {
			for _, fl := range strings.Split(fields[4], ",") {
				switch fl {
				case "EXT":
					f.Extended = true
				case "RTR":
					f.Remote = true
				case "FD":
					f.FD = true
				case "BRS":
					f.BRS = true
				case "ERR":
					corrupted = true
				case "":
				default:
					return nil, fmt.Errorf("can: trace line %d: unknown flag %q", lineNo, fl)
				}
			}
		}
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("can: trace line %d: %v", lineNo, err)
		}
		rec := NetifRecord(sim.Time(math.Round(ns)), f, fields[1])
		rec.Corrupted = corrupted
		t.Records = append(t.Records, rec)
	}
	return t, sc.Err()
}
