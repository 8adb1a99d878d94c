"""HTML tag scanner."""

import pytest

from repro.fingerprint import Tag, scan_tags
from repro.fingerprint.html_scan import scan_page


def inline_scripts(html):
    return scan_page(html).inline_scripts


def object_groups(html):
    return scan_page(html).object_groups


class TestScanTags:
    def test_basic_script(self):
        tags = scan_tags('<script src="/a.js"></script>')
        assert tags[0].name == "script"
        assert tags[0].get("src") == "/a.js"

    def test_attribute_quoting_styles(self):
        tags = scan_tags("<script src='/a.js' async data-x=plain></script>")
        tag = tags[0]
        assert tag.get("src") == "/a.js"
        assert tag.has("async")
        assert tag.get("data-x") == "plain"

    def test_case_insensitive_names(self):
        tags = scan_tags('<SCRIPT SRC="/a.js"></SCRIPT>')
        assert tags[0].name == "script"
        assert tags[0].get("src") == "/a.js"

    def test_self_closing(self):
        tags = scan_tags('<link rel="icon" href="/f.ico"/>')
        assert tags[0].get("href") == "/f.ico"

    def test_comments_stripped(self):
        tags = scan_tags('<!-- <script src="/old.js"></script> -->')
        assert tags == []

    def test_comments_kept_when_disabled(self):
        tags = scan_tags(
            '<!-- <script src="/old.js"></script> -->', strip_comments=False
        )
        assert len(tags) == 1

    def test_irrelevant_tags_ignored(self):
        tags = scan_tags("<div><p>hello</p><span>x</span></div>")
        assert tags == []

    def test_positions_increase(self):
        tags = scan_tags('<script src="/a.js"></script><img src="/b.png">')
        assert tags[0].position < tags[1].position


class TestInlineScripts:
    def test_bodies_extracted(self):
        bodies = inline_scripts("<script>var a=1;</script><script>var b=2;</script>")
        assert bodies == ["var a=1;", "var b=2;"]

    def test_empty_bodies_skipped(self):
        assert inline_scripts('<script src="/a.js"></script>') == []

    def test_multiline(self):
        assert inline_scripts("<script>\nvar a=1;\n</script>") == ["var a=1;"]

    def test_commented_out_body_skipped(self):
        html = "<!-- <script>/*! Bootstrap v3.3.7 */</script> --><script>x()</script>"
        assert inline_scripts(html) == ["x()"]

    def test_unclosed_script_has_no_body(self):
        assert inline_scripts("<script>var a=1;<img src=/a.png>") == []

    def test_tag_text_inside_body(self):
        html = "<script>document.write('<script src=/a.js>');</script>"
        assert inline_scripts(html) == ["document.write('<script src=/a.js>');"]
        assert [t.get("src") for t in scan_tags(html)] == ["", "/a.js"]


class TestObjectGroups:
    def test_params_grouped_with_object(self):
        html = (
            '<object width="1"><param name="movie" value="/a.swf">'
            '<param name="AllowScriptAccess" value="always"></object>'
        )
        groups = object_groups(html)
        assert len(groups) == 1
        obj, params = groups[0]
        assert obj.get("width") == "1"
        assert [p.get("name") for p in params] == ["movie", "AllowScriptAccess"]

    def test_two_objects_split(self):
        html = (
            '<object><param name="movie" value="/a.swf"></object>'
            '<object><param name="movie" value="/b.swf"></object>'
        )
        groups = object_groups(html)
        assert len(groups) == 2
        assert groups[0][1][0].get("value") == "/a.swf"
        assert groups[1][1][0].get("value") == "/b.swf"

    def test_param_after_close_not_attached(self):
        html = '<object></object><param name="movie" value="/x.swf">'
        # A stripped comment before the object must not shift the
        # ``</object>`` position relative to the tag positions.
        for page in (
            html,
            "<!-- a comment -->" + html,
            html.replace("</object>", "</object >"),
        ):
            groups = object_groups(page)
            assert len(groups) == 1
            assert groups[0][1] == []

    def test_no_object_no_groups(self):
        assert object_groups('<param name="movie" value="/x.swf">') == []


class TestTag:
    def test_tag_is_immutable(self):
        tag = scan_tags('<script src="/a.js"></script>')[0]
        with pytest.raises(AttributeError):
            tag.name = "link"
        assert tag == Tag("script", {"src": "/a.js"}, 0)
