#include "sdcm/experiment/profile.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>

#include "json_util.hpp"

namespace sdcm::experiment {

namespace {

using jsonu::JsonParser;
using jsonu::JsonValue;
using obs::append_json_string;
using jsonu::append_u64;

obs::RunProfile& model_slot(CampaignProfile& profile, std::string_view model) {
  auto& models = profile.models;
  const auto it = std::lower_bound(
      models.begin(), models.end(), model,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != models.end() && it->first == model) return it->second;
  return models.insert(it, {std::string(model), obs::RunProfile{}})->second;
}

void append_buckets(std::string& out,
                    const std::vector<obs::Histogram::Bucket>& buckets) {
  out += '[';
  bool first = true;
  for (const auto& bucket : buckets) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_u64(out, bucket.upper);
    out += ',';
    append_u64(out, bucket.count);
    out += ']';
  }
  out += ']';
}

std::uint64_t get_u64_field(const JsonValue& line, std::string_view key) {
  const JsonValue* v = line.find(key);
  std::uint64_t out = 0;
  if (v != nullptr && !v->as_u64(out)) out = 0;
  return out;
}

}  // namespace

void CampaignProfile::add(std::string_view model,
                          const obs::RunProfile& profile) {
  if (bounds.empty()) bounds = obs::profile_ns_bounds();
  model_slot(*this, model).merge(profile);
}

bool CampaignProfile::merge(const CampaignProfile& other) {
  if (!bounds.empty() && !other.bounds.empty() && bounds != other.bounds) {
    return false;
  }
  if (bounds.empty()) bounds = other.bounds;
  for (const auto& [name, profile] : other.models) {
    model_slot(*this, name).merge(profile);
  }
  return true;
}

void write_profile_jsonl(std::ostream& out, const CampaignProfile& profile) {
  std::string line;
  line = "{\"sdcm_profile\":1,\"bounds\":[";
  const auto& bounds =
      profile.bounds.empty() ? obs::profile_ns_bounds() : profile.bounds;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0) line += ',';
    append_u64(line, bounds[i]);
  }
  line += "]}\n";
  out << line;

  for (const auto& [name, run] : profile.models) {
    line = "{\"model\":";
    append_json_string(line, name);
    line += ",\"runs\":";
    append_u64(line, run.runs);
    line += ",\"loop_ns\":";
    append_u64(line, run.loop_ns);
    line += ",\"loop_events\":";
    append_u64(line, run.loop_events);
    line += "}\n";
    out << line;
    for (const auto& event : run.events) {
      line = "{\"model\":";
      append_json_string(line, name);
      line += ",\"event\":";
      append_json_string(line, event.name);
      line += ",\"count\":";
      append_u64(line, event.count);
      line += ",\"total_ns\":";
      append_u64(line, event.total_ns);
      line += ",\"max_ns\":";
      append_u64(line, event.max_ns);
      line += ",\"buckets\":";
      append_buckets(line, event.buckets);
      line += "}\n";
      out << line;
    }
    for (const auto& phase : run.phases) {
      line = "{\"model\":";
      append_json_string(line, name);
      line += ",\"phase\":";
      append_json_string(line, phase.name);
      line += ",\"count\":";
      append_u64(line, phase.count);
      line += ",\"total_ns\":";
      append_u64(line, phase.total_ns);
      line += ",\"peak_rss_kb\":";
      append_u64(line, phase.peak_rss_kb);
      line += ",\"heap_bytes\":";
      append_u64(line, phase.heap_bytes);
      line += "}\n";
      out << line;
    }
  }
}

bool read_profile_jsonl(std::istream& in, CampaignProfile& profile,
                        std::string& error) {
  CampaignProfile parsed;
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  obs::RunProfile* current = nullptr;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    std::string parse_error;
    if (!JsonParser(line).parse(value, parse_error)) {
      error = "line " + std::to_string(line_no) + ": " + parse_error;
      return false;
    }
    if (!saw_header) {
      const JsonValue* magic = value.find("sdcm_profile");
      const JsonValue* bounds = value.find("bounds");
      std::uint64_t version = 0;
      if (magic == nullptr || !magic->as_u64(version) || version != 1 ||
          bounds == nullptr || bounds->type != JsonValue::Type::kArray) {
        error = "line 1: not a profile header (expected "
                "{\"sdcm_profile\":1,\"bounds\":[...]})";
        return false;
      }
      for (const JsonValue& bound : bounds->items) {
        std::uint64_t ns = 0;
        if (!bound.as_u64(ns)) {
          error = "line 1: non-integer bucket bound";
          return false;
        }
        parsed.bounds.push_back(ns);
      }
      saw_header = true;
      continue;
    }
    const JsonValue* model = value.find("model");
    if (model == nullptr || model->type != JsonValue::Type::kString) {
      error = "line " + std::to_string(line_no) + ": missing \"model\"";
      return false;
    }
    if (const JsonValue* event = value.find("event"); event != nullptr) {
      if (current == nullptr) {
        error = "line " + std::to_string(line_no) +
                ": event line before its model line";
        return false;
      }
      obs::ProfileEntry entry;
      entry.name = event->text;
      entry.count = get_u64_field(value, "count");
      entry.total_ns = get_u64_field(value, "total_ns");
      entry.max_ns = get_u64_field(value, "max_ns");
      if (const JsonValue* buckets = value.find("buckets");
          buckets != nullptr && buckets->type == JsonValue::Type::kArray) {
        for (const JsonValue& pair : buckets->items) {
          std::uint64_t upper = 0;
          std::uint64_t count = 0;
          if (pair.type != JsonValue::Type::kArray || pair.items.size() != 2 ||
              !pair.items[0].as_u64(upper) || !pair.items[1].as_u64(count)) {
            error = "line " + std::to_string(line_no) + ": bad bucket pair";
            return false;
          }
          entry.buckets.push_back(obs::Histogram::Bucket{upper, count});
        }
      }
      // Fold through merge() rather than push_back so concatenated
      // shard files (two blocks for one model) still parse canonical.
      obs::RunProfile one;
      one.events.push_back(std::move(entry));
      current->merge(one);
    } else if (const JsonValue* phase = value.find("phase"); phase != nullptr) {
      if (current == nullptr) {
        error = "line " + std::to_string(line_no) +
                ": phase line before its model line";
        return false;
      }
      obs::PhaseEntry entry;
      entry.name = phase->text;
      entry.count = get_u64_field(value, "count");
      entry.total_ns = get_u64_field(value, "total_ns");
      entry.peak_rss_kb = get_u64_field(value, "peak_rss_kb");
      entry.heap_bytes = get_u64_field(value, "heap_bytes");
      obs::RunProfile one;
      one.phases.push_back(std::move(entry));
      current->merge(one);
    } else {
      obs::RunProfile run;
      run.runs = get_u64_field(value, "runs");
      run.loop_ns = get_u64_field(value, "loop_ns");
      run.loop_events = get_u64_field(value, "loop_events");
      current = &model_slot(parsed, model->text);
      // A well-formed file has one model line per model; merge keeps
      // concatenated shards readable too.
      obs::RunProfile lines;
      lines.runs = run.runs;
      lines.loop_ns = run.loop_ns;
      lines.loop_events = run.loop_events;
      current->merge(lines);
    }
  }
  if (!saw_header) {
    error = "empty input (no profile header)";
    return false;
  }
  // Sorted-insert in model_slot + snapshot() ordering inside each model
  // means `parsed` is already canonical; hand it over.
  if (!profile.merge(parsed)) {
    error = "bucket bounds mismatch against already-loaded profile";
    return false;
  }
  return true;
}

namespace {

double percent(std::uint64_t part, std::uint64_t whole) noexcept {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

double per_event_ns(std::uint64_t total_ns, std::uint64_t count) noexcept {
  return count == 0 ? 0.0
                    : static_cast<double>(total_ns) /
                          static_cast<double>(count);
}

}  // namespace

void write_profile_table(std::ostream& out, const CampaignProfile& profile,
                         std::size_t top_n) {
  char line[192];
  for (const auto& [name, run] : profile.models) {
    std::snprintf(line, sizeof(line),
                  "%s: %" PRIu64 " run(s), %" PRIu64
                  " loop events, loop %.1f ms\n",
                  name.c_str(), run.runs, run.loop_events,
                  static_cast<double>(run.loop_ns) / 1e6);
    out << line;
    // Rank by total time; ties broken by name for deterministic output.
    std::vector<const obs::ProfileEntry*> ranked;
    ranked.reserve(run.events.size());
    for (const auto& event : run.events) ranked.push_back(&event);
    std::sort(ranked.begin(), ranked.end(),
              [](const obs::ProfileEntry* a, const obs::ProfileEntry* b) {
                if (a->total_ns != b->total_ns) {
                  return a->total_ns > b->total_ns;
                }
                return a->name < b->name;
              });
    if (!ranked.empty()) {
      std::snprintf(line, sizeof(line), "  %-34s %12s %10s %10s %6s\n",
                    "event", "count", "total ms", "ns/event", "%loop");
      out << line;
    }
    std::size_t shown = 0;
    for (const obs::ProfileEntry* event : ranked) {
      if (top_n != 0 && shown >= top_n) {
        std::snprintf(line, sizeof(line), "  ... %zu more event type(s)\n",
                      ranked.size() - shown);
        out << line;
        break;
      }
      ++shown;
      std::snprintf(line, sizeof(line),
                    "  %-34s %12" PRIu64 " %10.2f %10.0f %5.1f%%\n",
                    event->name.c_str(), event->count,
                    static_cast<double>(event->total_ns) / 1e6,
                    per_event_ns(event->total_ns, event->count),
                    percent(event->total_ns, run.loop_ns));
      out << line;
    }
    for (const auto& phase : run.phases) {
      std::snprintf(line, sizeof(line),
                    "  %-34s %12" PRIu64 " %10.2f  rss=%" PRIu64
                    "KB heap=%" PRIu64 "B\n",
                    phase.name.c_str(), phase.count,
                    static_cast<double>(phase.total_ns) / 1e6,
                    phase.peak_rss_kb, phase.heap_bytes);
      out << line;
    }
    out << '\n';
  }
}

std::size_t write_profile_diff(std::ostream& out, const CampaignProfile& a,
                               const CampaignProfile& b, double threshold) {
  char line[192];
  std::size_t drifted = 0;
  std::snprintf(line, sizeof(line), "%-20s %-34s %12s %12s %9s\n", "model",
                "event", "a ns/event", "b ns/event", "change");
  out << line;
  // Walk the union of (model, event) keys; both sides are sorted.
  auto ita = a.models.begin();
  auto itb = b.models.begin();
  const auto emit_model = [&](const std::string& model,
                              const obs::RunProfile* pa,
                              const obs::RunProfile* pb) {
    std::size_t ia = 0;
    std::size_t ib = 0;
    const std::size_t na = pa == nullptr ? 0 : pa->events.size();
    const std::size_t nb = pb == nullptr ? 0 : pb->events.size();
    while (ia < na || ib < nb) {
      const obs::ProfileEntry* ea = ia < na ? &pa->events[ia] : nullptr;
      const obs::ProfileEntry* eb = ib < nb ? &pb->events[ib] : nullptr;
      int order = 0;
      if (ea == nullptr) {
        order = 1;
      } else if (eb == nullptr) {
        order = -1;
      } else {
        order = ea->name < eb->name ? -1 : (eb->name < ea->name ? 1 : 0);
      }
      if (order < 0) {
        std::snprintf(line, sizeof(line), "%-20s %-34s %12.0f %12s %9s\n",
                      model.c_str(), ea->name.c_str(),
                      per_event_ns(ea->total_ns, ea->count), "-", "a only");
        out << line;
        ++ia;
      } else if (order > 0) {
        std::snprintf(line, sizeof(line), "%-20s %-34s %12s %12.0f %9s\n",
                      model.c_str(), eb->name.c_str(), "-",
                      per_event_ns(eb->total_ns, eb->count), "b only");
        out << line;
        ++ib;
      } else {
        const double va = per_event_ns(ea->total_ns, ea->count);
        const double vb = per_event_ns(eb->total_ns, eb->count);
        const double change = va == 0.0 ? 0.0 : (vb - va) / va;
        const bool moved =
            change > threshold || change < -threshold;
        if (moved) ++drifted;
        std::snprintf(line, sizeof(line),
                      "%-20s %-34s %12.0f %12.0f %+8.1f%%%s\n", model.c_str(),
                      ea->name.c_str(), va, vb, 100.0 * change,
                      moved ? " *" : "");
        out << line;
        ++ia;
        ++ib;
      }
    }
  };
  while (ita != a.models.end() || itb != b.models.end()) {
    if (itb == b.models.end() ||
        (ita != a.models.end() && ita->first < itb->first)) {
      emit_model(ita->first, &ita->second, nullptr);
      ++ita;
    } else if (ita == a.models.end() || itb->first < ita->first) {
      emit_model(itb->first, nullptr, &itb->second);
      ++itb;
    } else {
      emit_model(ita->first, &ita->second, &itb->second);
      ++ita;
      ++itb;
    }
  }
  return drifted;
}

}  // namespace sdcm::experiment
