// Package daemon is the process shell mlmserve and mlmcoord share: the
// flags every service binary takes (-addr, -drain-timeout, -log-level,
// -log-json), the structured logger they select, and the listen, signal
// and drain loop.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// Flags are the process options common to the service binaries.
type Flags struct {
	Addr         string
	DrainTimeout time.Duration
	LogLevel     string
	LogJSON      bool
}

// Register binds the flags on the default flag set; defaultAddr is the
// binary's -addr default.
func (f *Flags) Register(defaultAddr string) {
	flag.StringVar(&f.Addr, "addr", defaultAddr, "listen address (host:port; port 0 picks a free port)")
	flag.DurationVar(&f.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	flag.StringVar(&f.LogLevel, "log-level", "info", "structured log level: debug, info, warn, error, or off")
	flag.BoolVar(&f.LogJSON, "log-json", false, "emit structured logs as JSON (default logfmt-style text)")
}

// Logger maps -log-level/-log-json onto a slog.Logger on stderr (stdout
// stays machine-parsable: the listen line and drain summary). Level
// "off" returns nil, which every layer treats as logging disabled.
func (f *Flags) Logger() (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(f.LogLevel) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off", "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn, error, or off", f.LogLevel)
	}
	opts := &slog.HandlerOptions{Level: lv}
	if f.LogJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// Server is what the shell serves and drains.
type Server interface {
	http.Handler
	// Drain stops admissions and waits for in-flight jobs.
	Drain(ctx context.Context) error
}

// Serve listens on -addr and prints "<name> listening on <addr><detail>"
// on stdout, so wrappers binding port 0 can discover the port. It serves
// srv until SIGINT or SIGTERM, then drains srv and shuts the listener
// down, both within -drain-timeout. The caller prints its own drained
// summary once Serve returns nil.
func (f *Flags) Serve(name string, srv Server, detail string) error {
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("%s listening on %s%s\n", name, ln.Addr(), detail)

	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("%s: %v — draining\n", name, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), f.DrainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain: %v\n", name, err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
