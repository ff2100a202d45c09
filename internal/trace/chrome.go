package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"wanshuffle/internal/topology"
)

// chromeEvent is one entry of the Chrome trace-event format, loadable in
// chrome://tracing or Perfetto: "X" complete events for spans, "M"
// metadata events naming processes/threads, and "s"/"f" flow events
// drawing arrows between causally linked spans.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"` // flow-event binding ID
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// chromePID/chromeTID offset DC and host IDs by one: Perfetto folds
// pid/tid 0 into its defaults, which un-labels the first DC and host.
func chromePID(dc topology.DCID) int  { return int(dc) + 1 }
func chromeTID(h topology.HostID) int { return int(h) + 1 }

// WriteChromeTrace renders the recorded spans as a Chrome trace: one
// process per datacenter, one thread per host, one complete event per
// span, and a flow arrow from each send span to the receive span that
// links back to it. Virtual seconds map to trace microseconds.
func (r *Recorder) WriteChromeTrace(w io.Writer, topo *topology.Topology) error {
	spans := r.Spans()
	events := make([]chromeEvent, 0, len(spans)+2*len(topo.DCs)+topo.NumHosts())
	// Name and order the processes (datacenters) and threads (hosts). The
	// "__metadata" category and sort indexes make Perfetto show DCs as
	// labeled process groups in topology order.
	for _, dc := range topo.DCs {
		events = append(events, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", PID: chromePID(dc.ID),
			Args: map[string]any{"name": dc.Name},
		})
		events = append(events, chromeEvent{
			Name: "process_sort_index", Cat: "__metadata", Ph: "M", PID: chromePID(dc.ID),
			Args: map[string]any{"sort_index": int(dc.ID)},
		})
	}
	for _, h := range topo.Hosts {
		events = append(events, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M",
			PID: chromePID(h.DC), TID: chromeTID(h.ID),
			Args: map[string]any{"name": h.Name},
		})
	}
	byID := map[SpanID]Span{}
	for _, s := range spans {
		if s.ID != 0 {
			byID[s.ID] = s
		}
	}
	for _, s := range spans {
		host := topo.Host(s.Host)
		name := string(s.Kind)
		if s.Label != "" {
			name = fmt.Sprintf("%s (%s)", s.Kind, s.Label)
		}
		args := map[string]any{"stage": s.Stage, "part": s.Part}
		if s.Trace != "" {
			args["trace"] = string(s.Trace)
		}
		if s.ID != 0 {
			args["span"] = int64(s.ID)
		}
		if s.Parent != 0 {
			args["parent"] = int64(s.Parent)
		}
		if s.Shuffle != 0 {
			args["shuffle"] = s.Shuffle
		}
		if s.SrcSite != "" || s.DstSite != "" {
			args["link"] = fmt.Sprintf("%s→%s", s.SrcSite, s.DstSite)
		}
		if s.Bytes > 0 {
			args["bytes"] = s.Bytes
		}
		if s.Records > 0 {
			args["records"] = s.Records
		}
		events = append(events, chromeEvent{
			Name: name,
			Cat:  string(s.Kind),
			Ph:   "X",
			TS:   s.Start * 1e6,
			Dur:  (s.End - s.Start) * 1e6,
			PID:  chromePID(host.DC),
			TID:  chromeTID(s.Host),
			Args: args,
		})
		// Draw an arrow from the remote span this one consumed (the
		// push-send) to this span (the receive).
		if s.Link != 0 {
			send, ok := byID[s.Link]
			if !ok {
				continue
			}
			sendHost := topo.Host(send.Host)
			// Unique per receive: a retried push exchange can leave two
			// receives of one send, and each arrow needs its own binding.
			flowID := fmt.Sprintf("%d.%d", s.Link, s.ID)
			events = append(events, chromeEvent{
				Name: "xfer", Cat: "flow", Ph: "s", ID: flowID,
				TS: send.Start * 1e6, PID: chromePID(sendHost.DC), TID: chromeTID(send.Host),
			})
			events = append(events, chromeEvent{
				Name: "xfer", Cat: "flow", Ph: "f", BP: "e", ID: flowID,
				TS: s.Start * 1e6, PID: chromePID(host.DC), TID: chromeTID(s.Host),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
