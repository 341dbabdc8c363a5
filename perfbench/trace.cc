#include "trace.hh"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer &t, const char *name, int64_t cell)
    : tracer_(t), index_(t.spans_.size()), saved_parent_(t.open_)
{
    Span s;
    s.name = name;
    s.parent = t.open_;
    s.cell = cell;
    s.start_us = t.nowUs();
    t.spans_.push_back(s);
    t.open_ = (int64_t)index_;
}

Tracer::Scope::~Scope()
{
    tracer_.spans_[index_].end_us = tracer_.nowUs();
    tracer_.open_ = saved_parent_;
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

double
Tracer::total(const std::string &name) const
{
    double s = 0.0;
    for (const Span &span : spans_)
        if (name == span.name)
            s += span.seconds();
    return s;
}

size_t
Tracer::count(const std::string &name) const
{
    size_t n = 0;
    for (const Span &span : spans_)
        n += name == span.name;
    return n;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                     "{\"id\":%zu,\"parent\":%lld,\"cell\":%lld}}",
                     i ? "," : "", s.name, s.start_us,
                     s.end_us - s.start_us, i, (long long)s.parent,
                     (long long)s.cell);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
