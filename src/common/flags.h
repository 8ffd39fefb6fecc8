// Command-line flags for the tools and benches. A program declares every
// flag it accepts once, on a Parser: its name, the variable it sets
// (whose initial value is the default), one line of help and, for a
// string, an optional list of allowed values. parse() checks argv
// against that table and --help prints it, so the table is the program's
// one list of flags.
//
//   std::string json;
//   bool serial = false;
//   flags::Parser cli("bench_x");
//   cli.flag("json", &json, "write the rows as bench JSON here")
//       .flag("no-double-buffer", &serial, "run the serial schedule");
//   if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
//
// parse() accepts --name=value, a bare --name for a bool, --name:<key>=X
// for a keyed family and the declared number of positional arguments.
// It rejects, with a message naming the argument: an unknown flag, a
// bool given a value, a valued flag without one, a number std::from_chars
// does not consume whole or that does not fit its target (or, for a
// floating-point target, is not finite), a string off its list, and a
// flag or keyed entry given twice. report() turns the status into the
// exit code: 0 after --help, 2 after a usage error.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace davinci::flags {

enum class Status { kOk, kHelp, kUsage };

class Parser {
 public:
  // `synopsis` names the positional arguments on the usage line.
  explicit Parser(std::string program, std::string synopsis = "")
      : program_(std::move(program)),
        synopsis_(std::move(synopsis)),
        flags_{{"help", "", "print this help and exit", {}}} {}

  // Declares --name for a bool, which it sets; --name=value for an
  // arithmetic type or a string, which non-empty `choices` restrict; and
  // --name:<key>=X, once per key, for a map of doubles.
  template <typename T>
  Parser& flag(const std::string& name, T* target, const std::string& help,
               const std::vector<std::string>& choices = {}) {
    Flag f{name, "", help, {}};
    std::string shown;
    if constexpr (std::is_same_v<T, bool>) {
      shown = *target ? "on" : "off";
      f.set = [target](const std::string&, const std::string&) {
        *target = true;
        return std::string();
      };
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::string list;
      for (const auto& c : choices) list += (list.empty() ? "" : "|") + c;
      f.meta = list.empty() ? "=STR" : "=" + list;
      shown = target->empty() ? "none" : *target;
      f.set = [=](const std::string&, const std::string& v) {
        if (!list.empty() && std::ranges::find(choices, v) == choices.end()) {
          return "one of " + list;
        }
        *target = v;
        return std::string();
      };
    } else if constexpr (std::is_same_v<T, std::map<std::string, double>>) {
      f.meta = ":<key>=X";
      shown = "none";
      f.set = [target](const std::string& key, const std::string& v) {
        return number(v, &(*target)[key]);
      };
    } else {
      static_assert(std::is_arithmetic_v<T>, "flags: unsupported type");
      f.meta = std::is_integral_v<T> ? "=N" : "=X";
      shown = text(*target);
      f.set = [target](const std::string&, const std::string& v) {
        return number(v, target);
      };
    }
    f.help += " (default: " + shown + ")";
    flags_.push_back(std::move(f));
    return *this;
  }

  // Between `min` and `max` non-flag arguments, appended to `target`.
  Parser& positional(std::vector<std::string>* target, std::size_t min,
                     std::size_t max) {
    positional_ = {target, min, max};
    return *this;
  }

  Status parse(int argc, char** argv) {
    std::vector<std::string> seen;
    std::size_t positionals = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") return Status::kHelp;
      if (arg.size() < 2 || arg[0] != '-') {
        if (++positionals > positional_.max) {
          return usage_error(arg + ": unexpected argument");
        }
        positional_.target->push_back(arg);
        continue;
      }
      // --name[:key][=value]; a ':' before any '=' marks a keyed entry.
      const std::size_t eq = std::min(arg.find('='), arg.size());
      const std::size_t colon = std::min(arg.find(':'), eq);
      const bool keyed = colon < eq;
      const std::string name = arg.substr(0, colon);
      const auto key = keyed ? arg.substr(colon + 1, eq - colon - 1) : "";
      const std::string value = eq < arg.size() ? arg.substr(eq + 1) : "";
      const auto f = std::find_if(flags_.begin(), flags_.end(), [&](auto& g) {
        return "--" + g.name == name && g.meta.starts_with(':') == keyed;
      });
      if (f == flags_.end()) return usage_error("unknown flag " + arg);
      if (f->meta.empty() ? eq < arg.size()
                          : value.empty() || (keyed && key.empty())) {
        return usage_error(arg + ": expected " + name + f->meta);
      }
      const std::string id = keyed ? name + ":" + key : name;
      if (std::count(seen.begin(), seen.end(), id) != 0) {
        return usage_error(arg + ": " + id + " given twice");
      }
      seen.push_back(id);
      if (const std::string bad = f->set(key, value); !bad.empty()) {
        return usage_error(arg + ": expected " + bad);
      }
    }
    if (positionals < positional_.min) {
      return usage_error("missing arguments: " + synopsis_);
    }
    return Status::kOk;
  }

  // The message of the last usage error.
  const std::string& error() const { return error_; }

  // Ends a parse() that did not return kOk: --help prints the usage to
  // stdout and returns 0; a usage error prints its message and the usage
  // to stderr and returns 2.
  int report() const {
    if (!error_.empty()) return fail(error_);
    std::fputs(usage().c_str(), stdout);
    return 0;
  }

  // Reports a usage error that only the program can detect (a rule
  // between flags, or a setting a library rejects) the same way.
  int fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(),
                 usage().c_str());
    return 2;
  }

  // The usage line, then one line per declared flag with its default.
  std::string usage() const {
    std::string out = "usage: " + program_ + (synopsis_.empty() ? "" : " ") +
                      synopsis_ + " [flags]\n";
    for (const Flag& f : flags_) {
      const std::string left = "--" + f.name + f.meta;
      const std::size_t pad = left.size() < 24 ? 24 - left.size() : 1;
      out += "  " + left + std::string(pad, ' ') + f.help + "\n";
    }
    return out;
  }

 private:
  struct Flag {
    std::string name;  // without the leading "--"
    std::string meta;  // "" for a bool, else "=N", "=X", "=a|b", ...
    std::string help;  // ends with the default
    // Stores `value` (and `key`, for a map); returns "" or, for a value
    // it rejects, what the value should have been.
    std::function<std::string(const std::string&, const std::string&)> set;
  };

  template <typename T>
  static std::string text(T v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }

  // Parses all of `v` into *out; returns "" or what `v` should have been.
  template <typename T>
  static std::string number(const std::string& v, T* out) {
    using L = std::numeric_limits<T>;
    T x{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
    const bool whole = ec == std::errc() && end == v.data() + v.size();
    if constexpr (std::is_integral_v<T>) {
      if (!whole) {
        const std::string min = text(L::min()), max = text(L::max());
        return "an integer from " + min + " to " + max;
      }
    } else if (!whole || !std::isfinite(x)) {
      return "a finite number";
    }
    *out = x;
    return "";
  }

  Status usage_error(std::string message) {
    error_ = std::move(message);
    return Status::kUsage;
  }

  std::string program_, synopsis_, error_;
  std::vector<Flag> flags_;
  struct {
    std::vector<std::string>* target = nullptr;
    std::size_t min = 0, max = 0;
  } positional_;
};

}  // namespace davinci::flags
