package can

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"autosec/internal/sim"
)

// Text trace interchange format, one frame per line:
//
//	<seconds> <sender> <hex-id> <hex-payload|-> [flags]
//
// e.g. "0.010000 engine 0C0 DEADBEEF" or "1.200000 atk 1FFFFFFF - EXT".
// Flags: EXT (extended id), RTR, FD, BRS, ERR (corrupted). This is the
// format cmd/canalyze reads and the Recorder-backed tools write.

// WriteTrace emits the trace in the text format.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Records {
		payload := "-"
		if len(r.Frame.Data) > 0 {
			payload = strings.ToUpper(hex.EncodeToString(r.Frame.Data))
		}
		var flags []string
		if r.Frame.Extended {
			flags = append(flags, "EXT")
		}
		if r.Frame.Remote {
			flags = append(flags, "RTR")
		}
		if r.Frame.FD {
			flags = append(flags, "FD")
		}
		if r.Frame.BRS {
			flags = append(flags, "BRS")
		}
		if r.Corrupted {
			flags = append(flags, "ERR")
		}
		sender := r.Sender
		if sender == "" {
			sender = "?"
		}
		if _, err := fmt.Fprintf(bw, "%.9f %s %X %s %s\n",
			r.At.Seconds(), sender, uint32(r.Frame.ID), payload, strings.Join(flags, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseTrace reads the text format back into a Trace. Blank lines and
// lines starting with '#' are skipped. Times round to the nearest
// nanosecond, so ParseTrace(WriteTrace(t)) reproduces t's timestamps; a
// time that is not finite, is negative or overflows sim.Time is an error.
func ParseTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
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
		rec := Record{
			At:     sim.Time(math.Round(ns)),
			Sender: fields[1],
			Frame:  Frame{ID: ID(id64)},
		}
		if fields[3] != "-" {
			data, err := hex.DecodeString(fields[3])
			if err != nil {
				return nil, fmt.Errorf("can: trace line %d: payload: %v", lineNo, err)
			}
			rec.Frame.Data = data
		}
		if len(fields) >= 5 {
			for _, fl := range strings.Split(fields[4], ",") {
				switch fl {
				case "EXT":
					rec.Frame.Extended = true
				case "RTR":
					rec.Frame.Remote = true
				case "FD":
					rec.Frame.FD = true
				case "BRS":
					rec.Frame.BRS = true
				case "ERR":
					rec.Corrupted = true
				case "":
				default:
					return nil, fmt.Errorf("can: trace line %d: unknown flag %q", lineNo, fl)
				}
			}
		}
		if err := rec.Frame.Validate(); err != nil {
			return nil, fmt.Errorf("can: trace line %d: %v", lineNo, err)
		}
		t.Records = append(t.Records, rec)
	}
	return t, sc.Err()
}
