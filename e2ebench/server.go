package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// server is an in-process planning service on a loopback listener, with
// the tracer its requests record into and a keep-alive client.
type server struct {
	srv    *serve.Server
	tracer *obs.Tracer
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

// startServer serves serve.New(...).Handler() on 127.0.0.1 with default
// workers, queue depth and plan-cache capacity.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	tr := obs.New()
	srv := serve.New(serve.Config{Tracer: tr})
	s := &server{
		srv:    srv,
		tracer: tr,
		hs:     &http.Server{Handler: srv.Handler()},
		done:   make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/plan",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and returns once the serve goroutine has
// exited.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	return err
}

// post sends one /v1/plan request and returns the status, the
// X-Plan-Cache header and the body.
func (s *server) post(body []byte) (int, string, []byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Plan-Cache"), out, nil
}

// counters snapshots the tracer counters the serve phase reads.
func (s *server) counters() map[string]int64 {
	return s.tracer.Report().Counters
}
