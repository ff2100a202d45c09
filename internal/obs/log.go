package obs

import (
	"io"
	"log/slog"
)

// nopLogger discards every record cheaply: the handler's level is above
// any level slog emits, so Enabled short-circuits before formatting.
var nopLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 128}))

// LoggerOr returns l, or a logger that discards everything when l is nil.
// Config structs across the planner and backends default their Logger
// fields through it, so instrumented code needs no nil checks (the
// nil-Recorder idiom, applied to logging).
func LoggerOr(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}
