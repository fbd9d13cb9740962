#include "src/core/registry.h"

#include <stdexcept>

namespace lmb {

Registry& Registry::global() {
  static Registry* registry = new Registry;  // intentionally leaked
  return *registry;
}

void Registry::add(BenchmarkInfo info) {
  if (info.name.empty()) {
    throw std::invalid_argument("benchmark name must be non-empty");
  }
  if (!info.run) {
    throw std::invalid_argument("benchmark '" + info.name + "' has no run function");
  }
  // Stamp the entry's identity onto whatever the run function returns, so
  // registration sites only fill in metrics and metadata.
  auto fn = std::move(info.run);
  info.run = [fn, name = info.name, category = info.category](const Options& opts) {
    RunResult result = fn(opts);
    if (result.name.empty()) {
      result.name = name;
    }
    if (result.category.empty()) {
      result.category = category;
    }
    return result;
  };
  auto [it, inserted] = entries_.emplace(info.name, std::move(info));
  if (!inserted) {
    throw std::invalid_argument("duplicate benchmark name: " + it->first);
  }
}

const BenchmarkInfo* Registry::find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const BenchmarkInfo*> Registry::list(const std::string& category) const {
  std::vector<const BenchmarkInfo*> out;
  for (const auto& [name, info] : entries_) {
    if (category.empty() || info.category == category) {
      out.push_back(&info);
    }
  }
  return out;
}

Options PlanEntry::options_over(const Options& base) const {
  std::vector<const char*> argv = {name.c_str()};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  Options parsed = Options::parse(static_cast<int>(argv.size()), argv.data());
  if (!parsed.positionals().empty()) {
    throw std::invalid_argument(name + ": plan arg '" + parsed.positionals()[0] +
                                "' is not a --flag");
  }
  Options merged = base;
  for (const auto& [key, value] : parsed.entries()) {
    merged.set(key, value);
  }
  return merged;
}

std::string PlanEntry::args_text() const {
  std::string text;
  for (const std::string& arg : args) {
    text += (text.empty() ? "" : " ") + arg;
  }
  return text;
}

BenchmarkRegistrar::BenchmarkRegistrar(BenchmarkInfo info) {
  Registry::global().add(std::move(info));
}

}  // namespace lmb
