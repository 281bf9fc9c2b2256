// Package use exercises consumer-side writes to the shared type.
package use

import "sharedread/netpkg"

type local struct{ N int }

func mutate(net *netpkg.Network) {
	net.N = 5              // want "write to sharedread/netpkg.Network.N outside"
	net.Adj[0] = nil       // want "write to sharedread/netpkg.Network.Adj outside"
	net.Adj[1][2] = 3      // want "write to sharedread/netpkg.Network.Adj outside"
	net.N++                // want "write to sharedread/netpkg.Network.N outside"
	net.Name = "relabeled" // label field carries no structural state: no finding
}

func read(net *netpkg.Network) int {
	return net.N + len(net.Adj)
}

func localWrite(l *local) {
	l.N = 1 // not a shared type: no finding
}
