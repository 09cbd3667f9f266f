# Sourced by CI steps that start corgi-server in the background.
# stop PID LOG sends the server SIGTERM, which takes it through
# Node.Shutdown, and fails the step unless it exits 0 within 10 s, its
# stderr (LOG) ends with "bye", and it logged no "shutdown:" error.
stop() {
	kill -TERM "$1"
	(sleep 10; kill -KILL "$1") >/dev/null 2>&1 &
	watchdog=$!
	if ! wait "$1"; then
		echo "$2: no clean exit within 10 s of SIGTERM"
		cat "$2"
		exit 1
	fi
	kill "$watchdog"
	grep -q ' bye$' "$2"
	if grep 'shutdown:' "$2"; then exit 1; fi
}
