// mad_server: networked MQL front end.
//
// Usage:
//   mad_server [--host ADDR] [--port N] [--port-file PATH] [--db DIR]
//              [--setup FILE.mql] [--executor-threads N]
//              [--max-connections N] [--queue N] [--inflight N]
//              [--idle-timeout-ms N]
//
// Serves the wire protocol of docs/SERVER.md on one TCP socket. Every
// connection gets its own MQL session; all sessions share one database —
// in-memory by default, durable (WAL + checkpoints) with --db DIR.
//
// --port 0 binds an ephemeral port; --port-file writes the bound port to a
// file so a harness (the CI smoke test, mad_loadgen scripts) can find it.
// --setup executes an MQL script before the socket opens, to preload a
// schema and data.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, shed new statements
// with BUSY, finish everything admitted, roll back transactions left open
// by clients, and (with --db) take a final checkpoint. Exit status 0 after
// a clean drain, 2 on startup failure.

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "mql/session.h"
#include "server/server.h"
#include "storage/database.h"
#include "storage/durable_database.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

int Usage() {
  std::cerr
      << "usage: mad_server [--host ADDR] [--port N] [--port-file PATH]\n"
         "                  [--db DIR] [--setup FILE.mql]\n"
         "                  [--executor-threads N] [--max-connections N]\n"
         "                  [--queue N] [--inflight N] [--idle-timeout-ms N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mad::server::ServerOptions options;
  options.port = 7411;  // default port; --port 0 asks for an ephemeral one
  std::string port_file;
  std::string db_dir;
  std::string setup_file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--host" && (value = next())) {
      options.host = value;
    } else if (arg == "--port" && (value = next())) {
      options.port = static_cast<uint16_t>(std::atoi(value));
    } else if (arg == "--port-file" && (value = next())) {
      port_file = value;
    } else if (arg == "--db" && (value = next())) {
      db_dir = value;
    } else if (arg == "--setup" && (value = next())) {
      setup_file = value;
    } else if (arg == "--executor-threads" && (value = next())) {
      options.executor_threads = static_cast<size_t>(std::atol(value));
    } else if (arg == "--max-connections" && (value = next())) {
      options.max_connections = static_cast<size_t>(std::atol(value));
    } else if (arg == "--queue" && (value = next())) {
      options.per_connection_queue = static_cast<size_t>(std::atol(value));
    } else if (arg == "--inflight" && (value = next())) {
      options.global_inflight = static_cast<size_t>(std::atol(value));
    } else if (arg == "--idle-timeout-ms" && (value = next())) {
      options.idle_timeout_ms = static_cast<uint64_t>(std::atoll(value));
    } else {
      std::cerr << "mad_server: unknown or incomplete flag: " << arg << "\n";
      return Usage();
    }
  }

  mad::Database memory_db("SERVER_DB");
  std::unique_ptr<mad::DurableDatabase> durable;
  mad::Database* db = &memory_db;
  if (!db_dir.empty()) {
    auto opened = mad::DurableDatabase::Open(db_dir);
    if (!opened.ok()) {
      std::cerr << "mad_server: cannot open --db " << db_dir << ": "
                << opened.status().ToString() << "\n";
      return 2;
    }
    durable = std::move(*opened);
    db = &durable->database();
  }

  if (!setup_file.empty()) {
    std::ifstream in(setup_file);
    if (!in) {
      std::cerr << "mad_server: cannot read --setup " << setup_file << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    mad::mql::Session setup_session(db, options.session_options);
    auto results = setup_session.ExecuteScript(text.str());
    if (!results.ok()) {
      std::cerr << "mad_server: --setup failed: "
                << results.status().ToString() << "\n";
      return 2;
    }
  }

  mad::server::MadServer server(db, options, durable.get());
  mad::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "mad_server: " << started.ToString() << "\n";
    return 2;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
  }
  std::cerr << "mad_server: listening on " << options.host << ":"
            << server.port() << (db_dir.empty() ? " (in-memory)" : " (durable)")
            << "\n";

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cerr << "mad_server: draining...\n";
  server.Shutdown();
  mad::server::ServerStats stats = server.stats();
  std::cerr << "mad_server: drained: " << stats.statements_ok << " ok, "
            << stats.statements_error << " errors (" << stats.statements_inline
            << " run inline), " << stats.shed_busy
            << " shed, " << stats.protocol_errors << " protocol errors, "
            << stats.connections_accepted << " connections served\n";
  return 0;
}
