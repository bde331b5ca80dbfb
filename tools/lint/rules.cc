#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace rased_lint {

namespace {

// --------------------------------------------------------------------------
// Rule table
// --------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"RL001", "raw-mutex",
     "raw std/pthread synchronization primitive outside "
     "src/util/thread_annotations.h; use rased::Mutex/MutexLock"},
    {"RL002", "guarded-field",
     "non-const member of a mutex-holding class lacks RASED_GUARDED_BY / "
     "RASED_PT_GUARDED_BY (or const, std::atomic, RASED_CONST_AFTER_INIT)"},
    {"RL003", "blocking-under-lock",
     "sleep or blocking syscall inside a MutexLock scope"},
    {"RL004", "status-discard",
     "(void) / static_cast<void> discard of a call result defeats "
     "[[nodiscard]] Status checking"},
    {"RL005", "nodiscard-type",
     "class Status / Result must be declared [[nodiscard]]"},
    {"RL006", "metric-name",
     "metric family name must be a literal matching rased_[a-z0-9_]* with "
     "the type's suffix (_total counters, _micros/_bytes histograms)"},
    {"RL007", "metric-in-loop",
     "metric registry handle created inside a loop; hoist GetCounter/"
     "GetGauge/GetHistogram to construction"},
    {"RL008", "banned-function",
     "banned unsafe / non-thread-safe libc function"},
    {"RL009", "include-order",
     "include order is: own header, <system>, \"project\""},
    {"RL010", "header-guard",
     "header guard must be RASED_<PATH>_H_ with matching #define and "
     "#endif comment"},
    {"RL011", "bad-nolint",
     "malformed NOLINT-RASED directive (unknown rule or missing reason)"},
    {"RL012", "snapshot-member",
     "CatalogSnapshot / CatalogVersion stored in a member field; snapshots "
     "are per-operation pins — hold them as locals so retired epochs drain"},
    {"RL013", "vendor-intrinsics",
     "vendor SIMD intrinsics (immintrin.h, _mm*/__m* identifiers) outside "
     "the ISA-flagged kernel files (src/cube/agg_kernels_avx2.cc, "
     "src/io/crc32c_sse42.cc); keep intrinsics behind their runtime "
     "dispatch (cube/agg_kernels.h, io/crc32c.h)"},
    {"RL014", "raw-wallclock",
     "raw std::chrono clock (system_clock / steady_clock / "
     "high_resolution_clock) outside src/util/clock.h; use NowMicros / "
     "NowWallMicros so a FakeClock can script time in tests"},
    {"RL015", "signal-unsafe",
     "non-async-signal-safe call inside a RASED_SIGNAL_HANDLER function "
     "(allocation, stdio, logging, mutex acquisition); handlers may only "
     "touch atomics, pre-allocated state, and AS-safe syscalls"},
};

const RuleInfo& Rule(const char* id) {
  for (const RuleInfo& rule : kRules) {
    if (std::string(rule.id) == id) return rule;
  }
  return kRules[0];  // unreachable for valid ids
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --------------------------------------------------------------------------
// Per-file context: token views, raw lines, suppression map
// --------------------------------------------------------------------------

struct Ctx {
  std::string display;
  std::string repo;
  std::vector<Token> all;          // every token, comments included
  std::vector<Token> code;         // comments + directives stripped
  std::vector<Token> directives;   // just the # lines
  std::map<int, std::set<std::string>> nolint;  // line -> rule ids/names
  std::vector<Finding> findings;
  int suppressed = 0;

  bool InRepo(const char* path) const { return repo == path; }

  bool Suppressed(int line, const RuleInfo& rule) {
    for (int probe : {line, line - 1}) {
      auto it = nolint.find(probe);
      if (it == nolint.end()) continue;
      if (it->second.count(rule.id) != 0 || it->second.count(rule.name) != 0) {
        ++suppressed;
        return true;
      }
    }
    return false;
  }

  void Emit(int line, const char* rule_id, std::string message) {
    const RuleInfo& rule = Rule(rule_id);
    if (Suppressed(line, rule)) return;
    findings.push_back({display, line, rule.id, rule.name, std::move(message)});
  }
};

/// Parses "// NOLINT-RASED(rule[, rule...]): reason" comments into the
/// suppression map; malformed directives become RL011 findings.
void ParseNolints(Ctx* ctx) {
  for (const Token& tok : ctx->all) {
    if (tok.kind != TokKind::kComment) continue;
    size_t at = tok.text.find("NOLINT-RASED");
    if (at == std::string::npos) continue;
    // A directive is the whole comment; prose that merely *mentions* the
    // marker (doc comments, this file) must not parse as one.
    if (tok.text.find_first_not_of("/* \t") != at) continue;
    size_t open = tok.text.find('(', at);
    size_t close = (open == std::string::npos)
                       ? std::string::npos
                       : tok.text.find(')', open);
    if (open == std::string::npos || close == std::string::npos ||
        open != at + std::string("NOLINT-RASED").size()) {
      ctx->Emit(tok.line, "RL011",
                "NOLINT-RASED needs an explicit rule list: "
                "// NOLINT-RASED(rule): reason");
      continue;
    }
    // Split the rule list on commas.
    std::set<std::string> rules;
    std::string list = tok.text.substr(open + 1, close - open - 1);
    bool ok = true;
    size_t pos = 0;
    while (pos <= list.size()) {
      size_t comma = list.find(',', pos);
      std::string rule = list.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      while (!rule.empty() && rule.front() == ' ') rule.erase(rule.begin());
      while (!rule.empty() && rule.back() == ' ') rule.pop_back();
      bool known = false;
      for (const RuleInfo& info : kRules) {
        if (rule == info.id || rule == info.name) known = true;
      }
      if (!known) {
        ctx->Emit(tok.line, "RL011",
                  "NOLINT-RASED names unknown rule '" + rule + "'");
        ok = false;
      }
      rules.insert(rule);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    // The reason after ':' is mandatory — an unexplained suppression is
    // as opaque as the violation it hides.
    size_t colon = tok.text.find(':', close);
    std::string reason =
        colon == std::string::npos ? "" : tok.text.substr(colon + 1);
    reason.erase(0, reason.find_first_not_of(" \t"));
    if (reason.empty()) {
      ctx->Emit(tok.line, "RL011",
                "NOLINT-RASED needs a reason: // NOLINT-RASED(rule): why");
      ok = false;
    }
    if (ok) {
      ctx->nolint[tok.line].insert(rules.begin(), rules.end());
    }
  }
}

// --------------------------------------------------------------------------
// Token helpers
// --------------------------------------------------------------------------

bool IsIdent(const Token& tok, const char* text) {
  return tok.kind == TokKind::kIdent && tok.text == text;
}

bool IsPunct(const Token& tok, char c) {
  return tok.kind == TokKind::kPunct && tok.text.size() == 1 &&
         tok.text[0] == c;
}

/// Index of the token after the brace/paren block opening at `open`
/// (which must hold the opening character), or toks.size().
size_t SkipBalanced(const std::vector<Token>& toks, size_t open, char lhs,
                    char rhs) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], lhs)) ++depth;
    if (IsPunct(toks[i], rhs) && --depth == 0) return i + 1;
  }
  return toks.size();
}

// --------------------------------------------------------------------------
// RL001 raw-mutex
// --------------------------------------------------------------------------

void CheckRawMutex(Ctx* ctx) {
  if (ctx->InRepo("src/util/thread_annotations.h") ||
      ctx->InRepo("src/util/deadlock_detector.h") ||
      ctx->InRepo("src/util/deadlock_detector.cc")) {
    return;
  }
  static const std::set<std::string> kStdPrimitives = {
      "mutex",        "timed_mutex",          "recursive_mutex",
      "shared_mutex", "recursive_timed_mutex", "shared_timed_mutex",
      "lock_guard",   "scoped_lock",          "unique_lock",
      "shared_lock",  "condition_variable",   "condition_variable_any"};
  const std::vector<Token>& toks = ctx->code;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (IsIdent(toks[i], "std") && IsPunct(toks[i + 1], ':') &&
        IsPunct(toks[i + 2], ':') && toks[i + 3].kind == TokKind::kIdent &&
        kStdPrimitives.count(toks[i + 3].text) != 0) {
      ctx->Emit(toks[i + 3].line, "RL001",
                "std::" + toks[i + 3].text +
                    " outside util/thread_annotations.h; use rased::Mutex / "
                    "MutexLock (rased::CondVar for waiting)");
    }
  }
  for (const Token& tok : toks) {
    if (tok.kind == TokKind::kIdent &&
        (tok.text.rfind("pthread_mutex", 0) == 0 ||
         tok.text.rfind("pthread_rwlock", 0) == 0 ||
         tok.text.rfind("pthread_cond", 0) == 0)) {
      ctx->Emit(tok.line, "RL001",
                tok.text + " outside util/thread_annotations.h; use "
                           "rased::Mutex / MutexLock");
    }
  }
}

// --------------------------------------------------------------------------
// RL002 guarded-field
// --------------------------------------------------------------------------

/// One member-level statement of a class body: the tokens at member depth
/// (nested {...} blocks are represented by their '{' only).
struct MemberStmt {
  std::vector<const Token*> toks;
};

/// Splits a class body [begin, end) into member-level statements.
std::vector<MemberStmt> SplitMembers(const std::vector<Token>& toks,
                                     size_t begin, size_t end) {
  std::vector<MemberStmt> stmts;
  MemberStmt current;
  size_t i = begin;
  while (i < end) {
    const Token& tok = toks[i];
    if (IsPunct(tok, '{')) {
      current.toks.push_back(&tok);
      i = SkipBalanced(toks, i, '{', '}');
      // A block followed by ';' is an initializer or nested type — the
      // statement continues to the ';'. A bare block is a function body:
      // the statement ends here.
      if (i < end && IsPunct(toks[i], ';')) {
        current.toks.push_back(&toks[i]);
        ++i;
      }
      stmts.push_back(std::move(current));
      current = MemberStmt();
      continue;
    }
    current.toks.push_back(&tok);
    if (IsPunct(tok, ';')) {
      stmts.push_back(std::move(current));
      current = MemberStmt();
    }
    ++i;
  }
  if (!current.toks.empty()) stmts.push_back(std::move(current));
  return stmts;
}

/// The declared data-member name of a statement: the first identifier
/// ending in '_' that is directly followed by ';', '=', '{', '[', or an
/// annotation macro. Returns nullptr for non-member statements (function
/// declarations, access specifiers, nested types).
const Token* MemberName(const MemberStmt& stmt) {
  static const std::set<std::string> kAnnotations = {
      "RASED_GUARDED_BY", "RASED_PT_GUARDED_BY", "RASED_CONST_AFTER_INIT"};
  for (size_t i = 0; i + 1 < stmt.toks.size(); ++i) {
    const Token& tok = *stmt.toks[i];
    if (tok.kind != TokKind::kIdent || tok.text.size() < 2 ||
        tok.text.back() != '_') {
      continue;
    }
    const Token& next = *stmt.toks[i + 1];
    if (IsPunct(next, ';') || IsPunct(next, '=') || IsPunct(next, '{') ||
        IsPunct(next, '[') ||
        (next.kind == TokKind::kIdent && kAnnotations.count(next.text) != 0)) {
      return &tok;
    }
  }
  return nullptr;
}

bool StmtContains(const MemberStmt& stmt, const char* ident) {
  for (const Token* tok : stmt.toks) {
    if (IsIdent(*tok, ident)) return true;
  }
  return false;
}

/// Scans ctx->code for every class/struct definition (nested ones
/// included, since the token walk revisits them) and hands each one's
/// name and member-level statements to fn. Shared by the member-field
/// rules (RL002, RL012).
void ForEachClassBody(
    Ctx* ctx, const std::function<void(const std::string& name,
                                       const std::vector<MemberStmt>&)>& fn) {
  const std::vector<Token>& toks = ctx->code;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!(IsIdent(toks[i], "class") || IsIdent(toks[i], "struct"))) continue;
    if (i > 0 && IsIdent(toks[i - 1], "enum")) continue;
    // Head: up to '{' (definition) or ';'/'>'/',' (fwd decl, template
    // parameter). The class name is the last head identifier before the
    // base-clause ':' at paren depth 0.
    size_t j = i + 1;
    std::string name;
    int paren = 0;
    bool saw_body = false;
    for (; j < toks.size(); ++j) {
      const Token& tok = toks[j];
      if (IsPunct(tok, '(') || IsPunct(tok, '<')) ++paren;
      if (IsPunct(tok, ')') || IsPunct(tok, '>')) --paren;
      if (paren > 0) continue;
      if (IsPunct(tok, ';') || IsPunct(tok, ',') || (IsPunct(tok, '>'))) break;
      if (IsPunct(tok, ':')) {
        // Base clause: scan on for the '{' but stop collecting the name.
        while (j < toks.size() && !IsPunct(toks[j], '{') &&
               !IsPunct(toks[j], ';')) {
          ++j;
        }
      }
      if (j < toks.size() && IsPunct(toks[j], '{')) {
        saw_body = true;
        break;
      }
      if (tok.kind == TokKind::kIdent && tok.text != "final" &&
          tok.text != "alignas") {
        name = tok.text;
      }
    }
    if (!saw_body || j >= toks.size()) continue;
    size_t body_begin = j + 1;
    size_t body_end = SkipBalanced(toks, j, '{', '}') - 1;
    fn(name, SplitMembers(toks, body_begin, body_end));
  }
}

void CheckGuardedFields(Ctx* ctx) {
  ForEachClassBody(ctx, [ctx](const std::string& name,
                              const std::vector<MemberStmt>& stmts) {
    // The rule applies only to classes that hold a rased lock.
    bool holds_mutex = false;
    for (const MemberStmt& stmt : stmts) {
      if (MemberName(stmt) != nullptr &&
          (StmtContains(stmt, "Mutex") || StmtContains(stmt, "SharedMutex"))) {
        holds_mutex = true;
      }
    }
    if (!holds_mutex) return;

    for (const MemberStmt& stmt : stmts) {
      const Token* member = MemberName(stmt);
      if (member == nullptr) continue;
      if (StmtContains(stmt, "static") || StmtContains(stmt, "constexpr") ||
          StmtContains(stmt, "friend") || StmtContains(stmt, "using") ||
          StmtContains(stmt, "typedef") || StmtContains(stmt, "class") ||
          StmtContains(stmt, "struct") || StmtContains(stmt, "enum")) {
        continue;
      }
      // The lock members themselves and lock-free atomics are exempt.
      if (StmtContains(stmt, "Mutex") || StmtContains(stmt, "SharedMutex") ||
          StmtContains(stmt, "CondVar") || StmtContains(stmt, "atomic")) {
        continue;
      }
      // Top-level const members are immutable; const inside template
      // arguments does not count, so only the leading tokens qualify.
      bool is_const = false;
      for (const Token* tok : stmt.toks) {
        if (tok == member) break;
        if (IsIdent(*tok, "const")) {
          is_const = true;
          break;
        }
        if (!(tok->kind == TokKind::kIdent &&
              (tok->text == "mutable" || tok->text == "public" ||
               tok->text == "private" || tok->text == "protected")) &&
            !IsPunct(*tok, ':')) {
          break;  // past the cv/access prefix: const no longer top-level
        }
      }
      if (is_const) continue;
      if (StmtContains(stmt, "RASED_GUARDED_BY") ||
          StmtContains(stmt, "RASED_PT_GUARDED_BY") ||
          StmtContains(stmt, "RASED_CONST_AFTER_INIT")) {
        continue;
      }
      ctx->Emit(member->line, "RL002",
                "member '" + member->text + "' of mutex-holding class '" +
                    name +
                    "' needs RASED_GUARDED_BY / RASED_PT_GUARDED_BY (or "
                    "const, std::atomic, RASED_CONST_AFTER_INIT)");
    }
  });
}

// --------------------------------------------------------------------------
// RL003 blocking-under-lock
// --------------------------------------------------------------------------

void CheckBlockingUnderLock(Ctx* ctx) {
  if (ctx->InRepo("src/util/thread_annotations.h")) return;
  static const std::set<std::string> kLockHolders = {
      "MutexLock", "WriterMutexLock", "ReaderMutexLock"};
  static const std::set<std::string> kBlocking = {
      "sleep",     "usleep", "nanosleep", "sleep_for", "sleep_until",
      "accept",    "accept4", "connect",  "recv",      "recvfrom",
      "send",      "sendto", "select",    "poll",      "epoll_wait",
      "system",    "popen",  "waitpid"};
  const std::vector<Token>& toks = ctx->code;
  // Brace depth at every token, so a lock scope can run to the end of its
  // enclosing block.
  std::vector<int> depth(toks.size(), 0);
  int d = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (IsPunct(toks[i], '{')) ++d;
    depth[i] = d;
    if (IsPunct(toks[i], '}')) --d;
  }
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        kLockHolders.count(toks[i].text) == 0 ||
        toks[i + 1].kind != TokKind::kIdent || !IsPunct(toks[i + 2], '(')) {
      continue;
    }
    int scope_depth = depth[i];
    for (size_t j = i + 3; j < toks.size() && depth[j] >= scope_depth; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          kBlocking.count(toks[j].text) != 0 && j + 1 < toks.size() &&
          IsPunct(toks[j + 1], '(') &&
          !(j > 0 && (IsPunct(toks[j - 1], '.') ||
                      IsPunct(toks[j - 1], '>')))) {
        ctx->Emit(toks[j].line, "RL003",
                  "'" + toks[j].text + "' inside the " + toks[i].text +
                      " scope opened at line " + std::to_string(toks[i].line) +
                      "; never sleep or block while holding a lock");
      }
    }
  }
}

// --------------------------------------------------------------------------
// RL004 status-discard
// --------------------------------------------------------------------------

/// True when toks[i..] spells an id-expression followed by a call '(':
/// identifiers joined by ::, ., ->, * and & end in a '(' before any
/// terminator. That is the shape of "(void)DoThing(...)".
bool IsCallAfter(const std::vector<Token>& toks, size_t i) {
  for (size_t j = i; j < toks.size(); ++j) {
    const Token& tok = toks[j];
    if (IsPunct(tok, '(')) return j > i;  // need at least one name first
    if (tok.kind == TokKind::kIdent || IsPunct(tok, ':') ||
        IsPunct(tok, '.') || IsPunct(tok, '-') || IsPunct(tok, '>') ||
        IsPunct(tok, '*') || IsPunct(tok, '&')) {
      continue;
    }
    return false;
  }
  return false;
}

void CheckStatusDiscard(Ctx* ctx) {
  if (ctx->InRepo("tests/util/nodiscard_enforcement.cc")) return;
  const std::vector<Token>& toks = ctx->code;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (IsPunct(toks[i], '(') && IsIdent(toks[i + 1], "void") &&
        IsPunct(toks[i + 2], ')') && IsCallAfter(toks, i + 3)) {
      ctx->Emit(toks[i].line, "RL004",
                "(void) cast discards a call result; handle the Status or "
                "suppress with a reasoned NOLINT-RASED");
    }
    if (IsIdent(toks[i], "static_cast") && IsPunct(toks[i + 1], '<') &&
        IsIdent(toks[i + 2], "void") && IsPunct(toks[i + 3], '>') &&
        i + 5 < toks.size() && IsPunct(toks[i + 4], '(') &&
        IsCallAfter(toks, i + 5)) {
      ctx->Emit(toks[i].line, "RL004",
                "static_cast<void> discards a call result; handle the "
                "Status or suppress with a reasoned NOLINT-RASED");
    }
  }
}

// --------------------------------------------------------------------------
// RL005 nodiscard-type
// --------------------------------------------------------------------------

void CheckNodiscardType(Ctx* ctx) {
  const std::vector<Token>& toks = ctx->code;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!(IsIdent(toks[i], "class") || IsIdent(toks[i], "struct"))) continue;
    std::string name;
    bool has_nodiscard = false;
    bool fwd_decl = false;
    size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      const Token& tok = toks[j];
      if (IsPunct(tok, '{') || IsPunct(tok, ':')) break;
      if (IsPunct(tok, ';')) {
        fwd_decl = true;
        break;
      }
      if (IsPunct(tok, '>') || IsPunct(tok, ',')) break;  // template <class T>
      if (IsIdent(tok, "nodiscard")) has_nodiscard = true;
      if (tok.kind == TokKind::kIdent && tok.text != "nodiscard" &&
          tok.text != "final") {
        name = tok.text;
      }
    }
    if (fwd_decl || (name != "Status" && name != "Result")) continue;
    if (!has_nodiscard) {
      ctx->Emit(toks[i].line, "RL005",
                "class " + name +
                    " must be [[nodiscard]] so dropped error codes fail the "
                    "build (see tests/util/nodiscard_enforcement.cc)");
    }
  }
}

// --------------------------------------------------------------------------
// RL006 metric-name + RL007 metric-in-loop
// --------------------------------------------------------------------------

bool IsMetricGetter(const std::vector<Token>& toks, size_t i) {
  if (toks[i].kind != TokKind::kIdent) return false;
  const std::string& text = toks[i].text;
  if (text != "GetCounter" && text != "GetGauge" && text != "GetHistogram") {
    return false;
  }
  // Only method calls (obj.Get... / ptr->Get...): skips the registry's own
  // declarations and definitions.
  return i > 0 && (IsPunct(toks[i - 1], '.') || IsPunct(toks[i - 1], '>'));
}

void CheckMetricNames(Ctx* ctx) {
  // Production families only: tests register synthetic names on purpose.
  if (ctx->repo.rfind("src/", 0) != 0) return;
  const std::vector<Token>& toks = ctx->code;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsMetricGetter(toks, i) || !IsPunct(toks[i + 1], '(')) continue;
    if (toks[i + 2].kind != TokKind::kString) {
      ctx->Emit(toks[i].line, "RL006",
                toks[i].text +
                    " family name must be a string literal so the naming "
                    "rules stay statically checkable");
      continue;
    }
    // Adjacent literals concatenate.
    std::string name = toks[i + 2].text;
    for (size_t j = i + 3;
         j < toks.size() && toks[j].kind == TokKind::kString; ++j) {
      name += toks[j].text;
    }
    bool shape_ok = name.rfind("rased_", 0) == 0 && name.size() > 6;
    for (size_t k = 6; shape_ok && k < name.size(); ++k) {
      char c = name[k];
      if (!(std::islower(static_cast<unsigned char>(c)) != 0 ||
            std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '_')) {
        shape_ok = false;
      }
    }
    if (!shape_ok) {
      ctx->Emit(toks[i].line, "RL006",
                "metric family '" + name +
                    "' must match rased_[a-z0-9_]+ (DESIGN.md §8)");
      continue;
    }
    if (toks[i].text == "GetCounter" && !EndsWith(name, "_total")) {
      ctx->Emit(toks[i].line, "RL006",
                "counter family '" + name + "' must end in _total");
    } else if (toks[i].text == "GetHistogram" &&
               !(EndsWith(name, "_micros") || EndsWith(name, "_bytes"))) {
      ctx->Emit(toks[i].line, "RL006",
                "histogram family '" + name +
                    "' must end in a base unit (_micros or _bytes); the "
                    "exposition adds _bucket/_sum/_count");
    } else if (toks[i].text == "GetGauge" &&
               (EndsWith(name, "_total") || EndsWith(name, "_bucket") ||
                EndsWith(name, "_sum") || EndsWith(name, "_count"))) {
      ctx->Emit(toks[i].line, "RL006",
                "gauge family '" + name +
                    "' must not use a counter/histogram suffix");
    }
  }
}

void CheckMetricInLoop(Ctx* ctx) {
  // Hot paths live in src/; registry stress tests loop over Get* on
  // purpose to prove handle stability.
  if (ctx->repo.rfind("src/", 0) != 0) return;
  const std::vector<Token>& toks = ctx->code;
  // Collect the token ranges of braced for/while/do bodies.
  std::vector<std::pair<size_t, size_t>> loops;
  for (size_t i = 0; i < toks.size(); ++i) {
    size_t open = std::string::npos;
    if (IsIdent(toks[i], "for") || IsIdent(toks[i], "while")) {
      size_t j = i + 1;
      if (j < toks.size() && IsPunct(toks[j], '(')) {
        j = SkipBalanced(toks, j, '(', ')');
        if (j < toks.size() && IsPunct(toks[j], '{')) open = j;
      }
    } else if (IsIdent(toks[i], "do") && i + 1 < toks.size() &&
               IsPunct(toks[i + 1], '{')) {
      open = i + 1;
    }
    if (open != std::string::npos) {
      loops.emplace_back(open, SkipBalanced(toks, open, '{', '}'));
    }
  }
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsMetricGetter(toks, i)) continue;
    for (const auto& [begin, end] : loops) {
      if (i > begin && i < end) {
        ctx->Emit(toks[i].line, "RL007",
                  toks[i].text +
                      " inside a loop re-resolves the family on every "
                      "iteration; create handles once at construction");
        break;
      }
    }
  }
}

// --------------------------------------------------------------------------
// RL008 banned-function
// --------------------------------------------------------------------------

void CheckBannedFunctions(Ctx* ctx) {
  static const std::map<std::string, std::string> kBanned = {
      {"rand", "util/random.h Rng (seedable, data-race-free)"},
      {"srand", "util/random.h Rng"},
      {"sprintf", "snprintf or util/str_util.h"},
      {"vsprintf", "vsnprintf"},
      {"strcpy", "std::string / snprintf"},
      {"strcat", "std::string / snprintf"},
      {"gets", "fgets"},
      {"tmpnam", "mkstemp"},
      {"time", "util/clock.h NowMicros (fake-clock testable)"},
      {"gmtime", "util/date.h (gmtime is not thread-safe)"},
      {"localtime", "util/date.h (localtime is not thread-safe)"},
      {"asctime", "util/date.h FormatDate"},
      {"ctime", "util/date.h FormatDate"},
  };
  const std::vector<Token>& toks = ctx->code;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    auto it = kBanned.find(toks[i].text);
    if (it == kBanned.end() || !IsPunct(toks[i + 1], '(')) continue;
    if (i > 0) {
      // Member calls (x.time(), x->send()) are a different function.
      if (IsPunct(toks[i - 1], '.') || IsPunct(toks[i - 1], '>')) continue;
      // Qualified names: only std:: / :: versions are the libc function.
      if (IsPunct(toks[i - 1], ':') && i >= 3 && IsPunct(toks[i - 2], ':') &&
          toks[i - 3].kind == TokKind::kIdent && toks[i - 3].text != "std") {
        continue;
      }
    }
    ctx->Emit(toks[i].line, "RL008",
              "banned function '" + toks[i].text + "'; use " + it->second);
  }
}

// --------------------------------------------------------------------------
// RL009 include-order
// --------------------------------------------------------------------------

struct Include {
  int line = 0;
  bool angle = false;
  std::string path;
};

std::vector<Include> ParseIncludes(const Ctx& ctx) {
  std::vector<Include> includes;
  for (const Token& tok : ctx.directives) {
    size_t at = tok.text.find_first_not_of(" \t", 1);  // past '#'
    if (at == std::string::npos ||
        tok.text.compare(at, 7, "include") != 0) {
      continue;
    }
    size_t open = tok.text.find_first_of("<\"", at);
    if (open == std::string::npos) continue;
    char closer = tok.text[open] == '<' ? '>' : '"';
    size_t close = tok.text.find(closer, open + 1);
    if (close == std::string::npos) continue;
    includes.push_back({tok.line, tok.text[open] == '<',
                        tok.text.substr(open + 1, close - open - 1)});
  }
  return includes;
}

void CheckIncludeOrder(Ctx* ctx) {
  std::vector<Include> includes = ParseIncludes(*ctx);
  if (includes.empty()) return;
  // The own header of foo.cc is the quote-include whose basename is foo.h.
  std::string own_base;
  if (EndsWith(ctx->repo, ".cc")) {
    size_t slash = ctx->repo.find_last_of('/');
    std::string base =
        slash == std::string::npos ? ctx->repo : ctx->repo.substr(slash + 1);
    own_base = base.substr(0, base.size() - 3) + ".h";
  }
  bool saw_project = false;
  for (size_t i = 0; i < includes.size(); ++i) {
    const Include& inc = includes[i];
    size_t slash = inc.path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? inc.path : inc.path.substr(slash + 1);
    bool is_own = !inc.angle && !own_base.empty() && base == own_base;
    if (is_own && i != 0) {
      ctx->Emit(inc.line, "RL009",
                "own header \"" + inc.path + "\" must be the first include");
    }
    // The first quote-include of a .cc is its related header (the own
    // header, or the header under test in foo_test.cc) and sorts before
    // the <system> block, per Google style.
    bool is_related = !inc.angle && i == 0 && EndsWith(ctx->repo, ".cc");
    if (!inc.angle && !is_own && !is_related) saw_project = true;
    if (inc.angle && saw_project) {
      ctx->Emit(inc.line, "RL009",
                "<" + inc.path +
                    "> after project includes; order is: own header, "
                    "<system>, \"project\"");
    }
  }
}

// --------------------------------------------------------------------------
// RL010 header-guard
// --------------------------------------------------------------------------

void CheckHeaderGuard(Ctx* ctx) {
  if (!EndsWith(ctx->repo, ".h")) return;
  std::string rel = ctx->repo;
  if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
  std::string expected = "RASED_";
  for (char c : rel) {
    expected += std::isalnum(static_cast<unsigned char>(c)) != 0
                    ? static_cast<char>(
                          std::toupper(static_cast<unsigned char>(c)))
                    : '_';
  }
  expected += '_';

  auto second_word = [](const std::string& text) -> std::string {
    size_t sp = text.find_first_of(" \t");
    if (sp == std::string::npos) return "";
    size_t begin = text.find_first_not_of(" \t", sp);
    if (begin == std::string::npos) return "";
    size_t end = text.find_first_of(" \t\r\n", begin);
    return text.substr(begin, end == std::string::npos ? std::string::npos
                                                       : end - begin);
  };

  if (ctx->directives.size() < 2 ||
      ctx->directives[0].text.rfind("#ifndef", 0) != 0 ||
      second_word(ctx->directives[0].text) != expected) {
    ctx->Emit(ctx->directives.empty() ? 1 : ctx->directives[0].line, "RL010",
              "header must open with '#ifndef " + expected + "'");
    return;
  }
  if (ctx->directives[1].text.rfind("#define", 0) != 0 ||
      second_word(ctx->directives[1].text) != expected) {
    ctx->Emit(ctx->directives[1].line, "RL010",
              "guard #define must be '" + expected + "'");
    return;
  }
  const Token& last = ctx->directives.back();
  if (last.text.rfind("#endif", 0) != 0 ||
      last.text.find("// " + expected) == std::string::npos) {
    ctx->Emit(last.line, "RL010",
              "closing line must be '#endif  // " + expected + "'");
  }
}

// --------------------------------------------------------------------------
// RL012 snapshot-member
// --------------------------------------------------------------------------

/// MVCC snapshots are per-operation pins: a CatalogSnapshot (or a retained
/// shared_ptr<const CatalogVersion>) stored in a member field keeps its
/// epoch alive for the holder's whole lifetime, so every retirement behind
/// it can never be reclaimed. Pin a local, use it for one plan/execute,
/// let it drain. The index's own version machinery (the publication chain,
/// staging, and the retired queue) is the one legitimate long-term holder.
void CheckSnapshotMember(Ctx* ctx) {
  if (ctx->InRepo("src/index/temporal_index.h") ||
      ctx->InRepo("src/index/temporal_index.cc")) {
    return;
  }
  ForEachClassBody(ctx, [ctx](const std::string& name,
                              const std::vector<MemberStmt>& stmts) {
    for (const MemberStmt& stmt : stmts) {
      const Token* member = MemberName(stmt);
      if (member == nullptr) continue;
      if (StmtContains(stmt, "static") || StmtContains(stmt, "using") ||
          StmtContains(stmt, "typedef") || StmtContains(stmt, "friend")) {
        continue;
      }
      if (StmtContains(stmt, "CatalogSnapshot") ||
          StmtContains(stmt, "CatalogVersion")) {
        ctx->Emit(member->line, "RL012",
                  "member '" + member->text + "' of class '" + name +
                      "' pins a catalog version for the object's lifetime; "
                      "take a CatalogSnapshot as a local per operation so "
                      "retired epochs can drain");
      }
    }
  });
}

// --------------------------------------------------------------------------
// RL013 vendor-intrinsics
// --------------------------------------------------------------------------

/// Vendor SIMD intrinsics are confined to the translation units built with
/// an ISA flag and called only through a runtime CPU check:
/// src/cube/agg_kernels_avx2.cc (-mavx2, behind cube/agg_kernels.h) and
/// src/io/crc32c_sse42.cc (-msse4.2, behind io/crc32c.h). Anywhere else
/// they either fail to compile (no ISA flag) or — worse — compile into
/// code that traps on CPUs without the extension, bypassing the dispatch.
/// Portable code calls the dispatched entry points (kernels::SumRun/AddRun,
/// Crc32c) and lets them pick the implementation.
void CheckVendorIntrinsics(Ctx* ctx) {
  for (const char* kernel_file :
       {"src/cube/agg_kernels_avx2.cc", "src/io/crc32c_sse42.cc"}) {
    if (ctx->InRepo(kernel_file)) return;
  }

  static const std::vector<std::string> kIntrinsicHeaders = {
      "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
      "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "pmmintrin.h",
      "wmmintrin.h", "ammintrin.h", "avxintrin.h", "avx2intrin.h",
      "arm_neon.h",  "arm_sve.h"};
  for (const Token& tok : ctx->directives) {
    if (tok.text.rfind("#include", 0) != 0) continue;
    for (const std::string& header : kIntrinsicHeaders) {
      if (tok.text.find(header) != std::string::npos) {
        ctx->Emit(tok.line, "RL013",
                  "include of vendor intrinsics header <" + header +
                      "> outside the ISA-flagged kernel files");
      }
    }
  }

  for (const Token& tok : ctx->code) {
    if (tok.kind != TokKind::kIdent) continue;
    // _mm_/_mm256_/_mm512_ intrinsic calls and __m128/__m256/__m512
    // vector types (any suffix: __m256i, __m512d, ...).
    if (tok.text.rfind("_mm", 0) == 0 || tok.text.rfind("__m128", 0) == 0 ||
        tok.text.rfind("__m256", 0) == 0 || tok.text.rfind("__m512", 0) == 0) {
      ctx->Emit(tok.line, "RL013",
                "vendor intrinsic '" + tok.text +
                    "' outside the ISA-flagged kernel files; call the "
                    "runtime-dispatched entry point");
    }
  }
}

// --------------------------------------------------------------------------
// RL014 raw-wallclock
// --------------------------------------------------------------------------

/// Every time read outside src/util/clock.h must go through NowMicros /
/// NowWallMicros so SetClockForTesting makes it scriptable. The named
/// std::chrono clocks are how code escapes that seam, so the identifiers
/// themselves are banned (durations like std::chrono::seconds stay fine —
/// sleeping for a duration is not reading a clock).
void CheckRawWallClock(Ctx* ctx) {
  if (ctx->InRepo("src/util/clock.h")) return;

  for (const Token& tok : ctx->code) {
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "system_clock" || tok.text == "steady_clock" ||
        tok.text == "high_resolution_clock") {
      ctx->Emit(tok.line, "RL014",
                "raw clock '" + tok.text +
                    "' outside src/util/clock.h; use NowMicros() / "
                    "NowWallMicros() (fake-clock testable)");
    }
  }
}

// --------------------------------------------------------------------------
// RL015 signal-unsafe
// --------------------------------------------------------------------------

/// RASED_SIGNAL_HANDLER (util/signal_safety.h) marks functions that run in
/// an async signal handler. POSIX allows only the AS-safe function list
/// there: no malloc/free or operator new/delete (the heap lock may be held
/// by the interrupted thread), no stdio or logging (buffered, locking), no
/// mutex acquisition (self-deadlock). The checker scans each annotated
/// function's body for banned call identifiers, lock-holder RAII types,
/// and the new/delete keywords.
void CheckSignalHandlerSafety(Ctx* ctx) {
  // Call-shape bans: the identifier must be followed by '(' and not be a
  // member access (x.free() is a different function).
  static const std::set<std::string> kBannedCalls = {
      // Allocation.
      "malloc", "calloc", "realloc", "free", "posix_memalign", "aligned_alloc",
      // Stdio: buffered and lock-taking.
      "printf", "fprintf", "vfprintf", "snprintf", "vsnprintf", "sprintf",
      "puts", "fputs", "putc", "putchar", "fwrite", "fread", "fopen",
      "fclose", "fflush",
      // Logging allocates and locks.
      "RASED_LOG", "RASED_CHECK",
      // Raw pthread locking.
      "pthread_mutex_lock", "pthread_mutex_trylock", "pthread_rwlock_rdlock",
      "pthread_rwlock_wrlock", "pthread_cond_wait", "pthread_cond_signal",
      "pthread_cond_broadcast",
      // Misc AS-unsafe libc.
      "exit", "abort_handler", "syslog", "backtrace", "backtrace_symbols",
      "dladdr", "dlopen", "dlsym"};
  // RAII lock holders are banned on sight — `MutexLock lock(&mu_);` is an
  // acquisition even though the type name is never followed by '('.
  static const std::set<std::string> kBannedIdents = {
      "MutexLock", "WriterMutexLock", "ReaderMutexLock", "Mutex",
      "SharedMutex", "CondVar"};
  const std::vector<Token>& toks = ctx->code;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "RASED_SIGNAL_HANDLER")) continue;
    // The annotation precedes a function definition; its body is the first
    // '{' before any top-level ';' (a bare ';' means declaration only).
    size_t open = std::string::npos;
    int paren = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      if (IsPunct(toks[j], '(')) ++paren;
      if (IsPunct(toks[j], ')')) --paren;
      if (paren > 0) continue;
      if (IsPunct(toks[j], ';')) break;
      if (IsPunct(toks[j], '{')) {
        open = j;
        break;
      }
    }
    if (open == std::string::npos) continue;
    size_t end = SkipBalanced(toks, open, '{', '}');
    for (size_t k = open + 1; k + 1 < end; ++k) {
      const Token& tok = toks[k];
      if (tok.kind != TokKind::kIdent) continue;
      if (tok.text == "new" || tok.text == "delete") {
        ctx->Emit(tok.line, "RL015",
                  "'" + tok.text +
                      "' inside a RASED_SIGNAL_HANDLER body; the heap lock "
                      "may be held by the interrupted thread");
        continue;
      }
      const bool member_call =
          k > 0 && (IsPunct(toks[k - 1], '.') || IsPunct(toks[k - 1], '>'));
      if (!member_call && kBannedCalls.count(tok.text) != 0 &&
          IsPunct(toks[k + 1], '(')) {
        ctx->Emit(tok.line, "RL015",
                  "'" + tok.text +
                      "' is not async-signal-safe; RASED_SIGNAL_HANDLER code "
                      "may only use atomics, pre-allocated buffers, and "
                      "AS-safe syscalls (write, clock_gettime, ...)");
        continue;
      }
      if (kBannedIdents.count(tok.text) != 0) {
        ctx->Emit(tok.line, "RL015",
                  "'" + tok.text +
                      "' acquires a lock inside a RASED_SIGNAL_HANDLER body; "
                      "a handler interrupting the lock holder self-deadlocks");
      }
    }
    i = end;
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Entry points
// --------------------------------------------------------------------------

const std::vector<RuleInfo>& Rules() { return kRules; }

std::vector<Finding> LintFile(const std::string& display_path,
                              const std::string& repo_path,
                              const std::string& contents, LintStats* stats) {
  Ctx ctx;
  ctx.display = display_path;
  ctx.repo = repo_path;
  ctx.all = Lex(contents);
  for (const Token& tok : ctx.all) {
    if (tok.kind == TokKind::kDirective) ctx.directives.push_back(tok);
    if (tok.kind != TokKind::kComment && tok.kind != TokKind::kDirective) {
      ctx.code.push_back(tok);
    }
  }
  ParseNolints(&ctx);
  CheckRawMutex(&ctx);
  CheckGuardedFields(&ctx);
  CheckBlockingUnderLock(&ctx);
  CheckStatusDiscard(&ctx);
  CheckNodiscardType(&ctx);
  CheckMetricNames(&ctx);
  CheckMetricInLoop(&ctx);
  CheckBannedFunctions(&ctx);
  CheckIncludeOrder(&ctx);
  CheckHeaderGuard(&ctx);
  CheckSnapshotMember(&ctx);
  CheckVendorIntrinsics(&ctx);
  CheckRawWallClock(&ctx);
  CheckSignalHandlerSafety(&ctx);
  std::sort(ctx.findings.begin(), ctx.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule_id < b.rule_id;
            });
  if (stats != nullptr) stats->suppressed += ctx.suppressed;
  return ctx.findings;
}

}  // namespace rased_lint
