// Server quickstart: start the multi-tenant serving subsystem in-process,
// then drive the same session you would run with curl against a standalone
// `incshrink-server`:
//
//	go run ./cmd/incshrink-server -addr :8080 &
//	curl -X POST localhost:8080/v1/views \
//	     -d '{"name":"deliveries","within":3,"epsilon":1.5,"t":2,"max_left":4,"max_right":4,"seed":42}'
//	curl -X POST localhost:8080/v1/views/deliveries/advance -d '{"left":[[1,0]],"right":[]}'
//	curl -X POST localhost:8080/v1/views/deliveries/advance -d '{"left":[[2,1]],"right":[[1,1]]}'
//	curl localhost:8080/v1/views/deliveries/count
//	curl -X POST localhost:8080/v1/views/deliveries/count \
//	     -d '{"where":[{"col":"right.time","minus":"left.time","op":"<=","val":1}]}'
//	curl localhost:8080/v1/views/deliveries/stats
//
// This example runs that session against a loopback listener so it is
// self-contained and printable, and finishes with a graceful shutdown.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"incshrink/internal/serve"
)

func main() {
	reg := serve.NewRegistry(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewHTTPServer("", serve.NewHandler(reg))
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Println("incshrink-server serving on", base)

	post := func(path, body string) { call("POST", base+path, body) }
	get := func(path string) { call("GET", base+path, "") }

	// One tenant: (order, delivery) pairs with delivery at most 3 steps
	// after the order, sDPTimer sync every 2 steps, epsilon 1.5.
	post("/v1/views", `{"name":"deliveries","within":3,"epsilon":1.5,"t":2,"max_left":4,"max_right":4,"seed":42}`)
	week := []string{
		`{"left":[[1,0]],"right":[]}`,
		`{"left":[[2,1]],"right":[[1,1]]}`,
		`{"left":[[3,2]],"right":[[2,2]]}`,
		`{"left":[[4,3]],"right":[]}`,
		`{"left":[[5,4]],"right":[[3,4],[4,4]]}`,
		`{"left":[[6,5]],"right":[[5,5]]}`,
		`{"left":[[7,6]],"right":[[7,6]]}`,
	}
	for _, day := range week {
		post("/v1/views/deliveries/advance", day)
	}
	get("/v1/views/deliveries/count")
	post("/v1/views/deliveries/count", `{"where":[{"col":"right.time","minus":"left.time","op":"<=","val":1}]}`)
	get("/v1/views/deliveries/stats")
	get("/healthz")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := reg.Close(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("graceful shutdown complete")
}

// call performs one request and prints it curl-style with its response.
func call(method, url, body string) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if body != "" {
		fmt.Printf("$ curl -X %s %s -d '%s'\n", method, url, body)
	} else if method != "GET" {
		fmt.Printf("$ curl -X %s %s\n", method, url)
	} else {
		fmt.Printf("$ curl %s\n", url)
	}
	fmt.Printf("  [%d] %s", resp.StatusCode, out)
}
