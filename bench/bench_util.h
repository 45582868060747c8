#ifndef DAVIX_BENCH_BENCH_UTIL_H_
#define DAVIX_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "httpd/dav_handler.h"
#include "httpd/object_store.h"
#include "httpd/router.h"
#include "httpd/server.h"
#include "netsim/link_profile.h"
#include "xrootd/xrd_server.h"

namespace davix {
namespace bench {

/// Common CLI contract of the scenario benches:
///
///   bench_foo [--smoke] [--json <path>]
///
/// --smoke shrinks the workload to a CI-sized sanity run; --json writes
/// the results as a machine-readable document next to the human tables
/// (the BENCH_*.json perf-trajectory artifacts). Unrecognised flags warn
/// and are ignored so older invocations keep working.
struct BenchArgs {
  bool smoke = false;
  std::string json_path;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "warning: ignoring unknown argument '%s'\n",
                   argv[i]);
    }
  }
  return args;
}

/// Accumulates benchmark result rows and serialises them as
///
///   {"bench": "<name>", "rows": [{"k": v, ...}, ...]}
///
/// Values keep insertion order. Keys and string values are escaped; use
/// Num/Int for numeric columns so downstream tooling gets real numbers.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  class Row {
   public:
    Row& Str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, Quote(value));
      return *this;
    }
    Row& Num(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6f", value);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& Int(const std::string& key, uint64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    /// A repeated measurement: its median under `key`, with `key`_min,
    /// `key`_max and the sample count `reps` beside it (once per row,
    /// however many columns are repeated).
    Row& Median(const std::string& key, const SampleStats& samples) {
      Num(key, samples.Percentile(50));
      Num(key + "_min", samples.Min());
      Num(key + "_max", samples.Max());
      for (const auto& field : fields_) {
        if (field.first == "reps") return *this;
      }
      return Int("reps", samples.count());
    }

   private:
    friend class JsonReporter;
    static std::string Quote(const std::string& raw) {
      std::string out = "\"";
      for (char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char esc[8];
              std::snprintf(esc, sizeof(esc), "\\u%04x", c);
              out += esc;
            } else {
              out += c;
            }
        }
      }
      out += '"';
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  std::string ToJson() const {
    std::string out = "{\"bench\": " + Row::Quote(bench_name_) +
                      ", \"rows\": [";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out += r == 0 ? "\n  {" : ",\n  {";
      const auto& fields = rows_[r].fields_;
      for (size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) out += ", ";
        out += Row::Quote(fields[f].first) + ": " + fields[f].second;
      }
      out += '}';
    }
    out += "\n]}\n";
    return out;
  }

  /// Writes the document to `path`; no-op when `path` is empty. Returns
  /// false (with a warning on stderr) when the file cannot be written.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write JSON results to %s\n",
                   path.c_str());
      return false;
    }
    std::string doc = ToJson();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("\nJSON results written to %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_name_;
  std::vector<Row> rows_;
};

/// Prints a banner naming the experiment and its paper artefact.
inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// The three network classes of §3 plus loopback for sanity rows.
inline std::vector<netsim::LinkProfile> PaperProfiles() {
  return {netsim::LinkProfile::Lan(), netsim::LinkProfile::PanEuropean(),
          netsim::LinkProfile::Wan()};
}

/// One HTTP storage node on a given simulated link, sharing `store`.
struct HttpNode {
  std::shared_ptr<httpd::ObjectStore> store;
  std::shared_ptr<httpd::DavHandler> handler;
  std::shared_ptr<httpd::Router> router;
  std::unique_ptr<httpd::HttpServer> server;

  std::string UrlFor(const std::string& path) const {
    return server->BaseUrl() + path;
  }
};

inline HttpNode StartHttpNode(const netsim::LinkProfile& link,
                              std::shared_ptr<httpd::ObjectStore> store) {
  HttpNode node;
  node.store = store ? std::move(store)
                     : std::make_shared<httpd::ObjectStore>();
  node.handler = std::make_shared<httpd::DavHandler>(node.store);
  node.router = std::make_shared<httpd::Router>();
  node.handler->Register(node.router.get(), "/");
  httpd::ServerConfig config;
  config.link = link;
  auto server = httpd::HttpServer::Start(config, node.router);
  if (!server.ok()) {
    std::fprintf(stderr, "fatal: cannot start http node: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  node.server = std::move(*server);
  return node;
}

/// One xrootd-like node on a given link, sharing `store`.
inline std::unique_ptr<xrootd::XrdServer> StartXrdNode(
    const netsim::LinkProfile& link,
    std::shared_ptr<httpd::ObjectStore> store) {
  xrootd::XrdServerConfig config;
  config.link = link;
  auto server = xrootd::XrdServer::Start(config, std::move(store));
  if (!server.ok()) {
    std::fprintf(stderr, "fatal: cannot start xrd node: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*server);
}

/// Pretty bar for "less is better" time columns, paper-figure style.
inline std::string Bar(double value, double max_value, int width = 36) {
  int n = max_value > 0
              ? static_cast<int>(value / max_value * width + 0.5)
              : 0;
  if (n > width) n = width;
  return std::string(static_cast<size_t>(n), '#');
}

}  // namespace bench
}  // namespace davix

#endif  // DAVIX_BENCH_BENCH_UTIL_H_
