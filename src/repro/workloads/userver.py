"""The uServer workload: an event-driven HTTP server in MiniC.

The server mirrors the structure the paper relies on:

* an event loop built on ``net_select``/``accept``/``recv`` (the syscalls whose
  results the selective syscall logging records),
* an input-heavy HTTP parser whose branches are symbolic,
* a set of ``lib_*`` string helpers standing in for uClibc: they contain the
  majority of executed branches but only a minority of the symbolic ones, and
  the static analysis skips them (treating all their branches as symbolic),
  exactly like the paper's handling of the library code.

The crash being reproduced is delivered externally once the scripted client
workload has been served (the paper sends the uServer a SEGFAULT signal after
the input); reproducing it therefore means reconstructing request bytes that
follow the recorded parsing path.
"""

from __future__ import annotations

from typing import Sequence

from repro.environment import Environment, simple_environment
from repro.workloads import httpgen

#: Functions treated as library (uClibc stand-in) code.
LIBRARY_FUNCTIONS = frozenset({
    "lib_strlen",
    "lib_prefix_eq",
    "lib_find_char",
    "lib_parse_int",
    "lib_to_upper",
    "lib_copy_range",
    "lib_str_eq",
    "lib_zero_buffer",
    "lib_checksum",
})

SOURCE = r"""
/* ------------------------------------------------------------------ */
/* Library code (uClibc stand-in): generic string helpers.             */
/* ------------------------------------------------------------------ */

int lib_strlen(char *s) {
    int n = 0;
    while (s[n] != 0) {
        n = n + 1;
    }
    return n;
}

int lib_prefix_eq(char *buf, int offset, int limit, char *prefix) {
    int i = 0;
    while (prefix[i] != 0) {
        if (offset + i >= limit) {
            return 0;
        }
        if (buf[offset + i] != prefix[i]) {
            return 0;
        }
        i = i + 1;
    }
    return 1;
}

int lib_find_char(char *buf, int start, int limit, char target) {
    int i = start;
    while (i < limit) {
        if (buf[i] == target) {
            return i;
        }
        i = i + 1;
    }
    return -1;
}

int lib_parse_int(char *buf, int start, int limit) {
    int value = 0;
    int i = start;
    int seen = 0;
    while (i < limit) {
        char c = buf[i];
        if (c < '0' || c > '9') {
            break;
        }
        value = value * 10 + (c - '0');
        seen = 1;
        i = i + 1;
    }
    if (seen == 0) {
        return -1;
    }
    return value;
}

int lib_to_upper(char c) {
    if (c >= 'a' && c <= 'z') {
        return c - 32;
    }
    return c;
}

int lib_copy_range(char *dst, char *src, int start, int end, int max) {
    int i = 0;
    while (start + i < end && i < max - 1) {
        dst[i] = src[start + i];
        i = i + 1;
    }
    dst[i] = 0;
    return i;
}

int lib_str_eq(char *a, char *b) {
    int i = 0;
    while (a[i] != 0 && b[i] != 0) {
        if (a[i] != b[i]) {
            return 0;
        }
        i = i + 1;
    }
    if (a[i] != b[i]) {
        return 0;
    }
    return 1;
}

int lib_zero_buffer(char *buf, int size) {
    int i = 0;
    while (i < size) {
        buf[i] = 0;
        i = i + 1;
    }
    return size;
}

int lib_checksum(char *s) {
    int sum = 0;
    int i = 0;
    while (s[i] != 0) {
        if (sum > 65535) {
            sum = sum - 65536;
        }
        sum = sum + s[i];
        i = i + 1;
    }
    return sum;
}

/* ------------------------------------------------------------------ */
/* Application code: the HTTP server.                                  */
/* ------------------------------------------------------------------ */

int REQUESTS_SERVED;
int ERRORS_SENT;
int LOG_CHECKSUM;

/* Per-connection bookkeeping that does not depend on request contents: this
 * is where most branch executions happen (the uClibc effect in Figure 3). */
int prepare_connection(char *buf) {
    lib_zero_buffer(buf, 600);
    LOG_CHECKSUM = LOG_CHECKSUM + lib_checksum("connection accepted on worker");
    if (LOG_CHECKSUM > 1000000) {
        LOG_CHECKSUM = 0;
    }
    return 0;
}

int parse_method(char *buf, int len) {
    if (lib_prefix_eq(buf, 0, len, "GET ") == 1) {
        return 1;
    }
    if (lib_prefix_eq(buf, 0, len, "POST ") == 1) {
        return 2;
    }
    if (lib_prefix_eq(buf, 0, len, "HEAD ") == 1) {
        return 3;
    }
    return 0;
}

int parse_uri(char *buf, int len, char *uri) {
    int first_space = lib_find_char(buf, 0, len, ' ');
    int second_space;
    int start;
    int copied;
    if (first_space < 0) {
        return -1;
    }
    start = first_space + 1;
    second_space = lib_find_char(buf, start, len, ' ');
    if (second_space < 0) {
        return -1;
    }
    if (buf[start] != '/') {
        return -1;
    }
    copied = lib_copy_range(uri, buf, start, second_space, 120);
    return copied;
}

int check_version(char *buf, int len) {
    int first_space = lib_find_char(buf, 0, len, ' ');
    int second_space;
    int v;
    if (first_space < 0) {
        return 0;
    }
    second_space = lib_find_char(buf, first_space + 1, len, ' ');
    if (second_space < 0) {
        return 0;
    }
    v = second_space + 1;
    if (lib_prefix_eq(buf, v, len, "HTTP/1.") == 0) {
        return 0;
    }
    if (v + 7 >= len) {
        return 0;
    }
    if (buf[v + 7] != '0' && buf[v + 7] != '1') {
        return 0;
    }
    return 1;
}

int find_header_value(char *buf, int len, char *name, char *value, int max) {
    int pos = lib_find_char(buf, 0, len, '\n');
    while (pos >= 0 && pos + 1 < len) {
        int line_start = pos + 1;
        if (lib_prefix_eq(buf, line_start, len, name) == 1) {
            int name_len = lib_strlen(name);
            int value_start = line_start + name_len;
            int line_end;
            if (buf[value_start] == ' ') {
                value_start = value_start + 1;
            }
            line_end = lib_find_char(buf, value_start, len, '\r');
            if (line_end < 0) {
                line_end = len;
            }
            return lib_copy_range(value, buf, value_start, line_end, max);
        }
        pos = lib_find_char(buf, line_start, len, '\n');
    }
    return -1;
}

int parse_content_length(char *buf, int len) {
    char value[16];
    int got = find_header_value(buf, len, "Content-Length:", value, 16);
    if (got <= 0) {
        return -1;
    }
    return lib_parse_int(value, 0, got);
}

int has_cookie(char *buf, int len) {
    char value[64];
    int got = find_header_value(buf, len, "Cookie:", value, 64);
    if (got > 0) {
        return 1;
    }
    return 0;
}

int uri_is_unsafe(char *uri, int len) {
    int i = 0;
    while (i + 1 < len) {
        if (uri[i] == '.' && uri[i + 1] == '.') {
            return 1;
        }
        i = i + 1;
    }
    return 0;
}

int send_error(int conn, int code) {
    ERRORS_SENT = ERRORS_SENT + 1;
    if (code == 400) {
        send_str(conn, "HTTP/1.1 400 Bad Request\r\n\r\n");
        return 0;
    }
    if (code == 404) {
        send_str(conn, "HTTP/1.1 404 Not Found\r\n\r\n");
        return 0;
    }
    if (code == 411) {
        send_str(conn, "HTTP/1.1 411 Length Required\r\n\r\n");
        return 0;
    }
    send_str(conn, "HTTP/1.1 505 HTTP Version Not Supported\r\n\r\n");
    return 0;
}

int send_page(int conn, char *uri, int method, int with_cookie) {
    send_str(conn, "HTTP/1.1 200 OK\r\n");
    if (with_cookie == 1) {
        send_str(conn, "Set-Cookie: seen=1\r\n");
    }
    send_str(conn, "Content-Type: text/html\r\n\r\n");
    if (method != 3) {
        send_str(conn, "<html><body>");
        send_str(conn, uri);
        send_str(conn, "</body></html>");
    }
    return 0;
}

int handle_request(int conn, char *buf, int n) {
    char uri[128];
    int method;
    int uri_len;
    int clen;
    int cookie;
    method = parse_method(buf, n);
    if (method == 0) {
        send_error(conn, 400);
        return 1;
    }
    uri_len = parse_uri(buf, n, uri);
    if (uri_len <= 0) {
        send_error(conn, 400);
        return 1;
    }
    if (uri_is_unsafe(uri, uri_len) == 1) {
        send_error(conn, 400);
        return 1;
    }
    if (check_version(buf, n) == 0) {
        send_error(conn, 505);
        return 1;
    }
    cookie = has_cookie(buf, n);
    if (method == 2) {
        clen = parse_content_length(buf, n);
        if (clen < 0) {
            send_error(conn, 411);
            return 1;
        }
    }
    if (lib_str_eq(uri, "/missing") == 1) {
        send_error(conn, 404);
        return 1;
    }
    send_page(conn, uri, method, cookie);
    REQUESTS_SERVED = REQUESTS_SERVED + 1;
    return 0;
}

int main(int argc, char **argv) {
    char buf[600];
    int listenfd;
    int idle = 0;
    REQUESTS_SERVED = 0;
    ERRORS_SENT = 0;
    listenfd = net_listen();
    while (workload_done() == 0) {
        int ready = net_select();
        if (ready < 0) {
            idle = idle + 1;
            if (idle > 64) {
                break;
            }
            continue;
        }
        idle = 0;
        if (ready == listenfd) {
            accept(listenfd);
            continue;
        }
        {
            int n;
            prepare_connection(buf);
            n = recv(ready, buf, 512);
            if (n <= 0) {
                close(ready);
                continue;
            }
            handle_request(ready, buf, n);
            close(ready);
        }
    }
    printf("served=%d errors=%d\n", REQUESTS_SERVED, ERRORS_SENT);
    /* Externally induced crash after the client workload completes (the
     * paper's methodology sends the server a SEGFAULT signal after the
     * input has been delivered). */
    crash("simulated SIGSEGV delivered after request workload");
    return 0;
}
"""


def environment_for(requests: Sequence[bytes], name: str,
                    chunk_limit: int = 0) -> Environment:
    """Build a server environment driven by the given scripted requests."""

    return simple_environment(["userver"], requests=list(requests), name=name,
                              read_chunk_limit=chunk_limit)


def experiment(number: int) -> Environment:
    """One of the five Table 3 input scenarios."""

    return environment_for(httpgen.scenario_requests(number),
                           name=f"userver-exp{number}")


def saturation_workload(request_count: int = 20) -> Environment:
    """The httperf-style uniform GET workload used for overhead measurements."""

    return environment_for(httpgen.uniform_workload(request_count),
                           name=f"userver-load{request_count}")


def profiling_workload(request_count: int = 12) -> Environment:
    """The mixed workload used for branch-behaviour profiling (Figure 3)."""

    return environment_for(httpgen.mixed_workload(request_count),
                           name=f"userver-mix{request_count}")
